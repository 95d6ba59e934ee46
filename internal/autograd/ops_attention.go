package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Attention is multi-head scaled dot-product attention over packed
// sequences, recorded as ONE tape node. q is [b·tq, d], k and v are
// [b·tk, d]; sample s owns rows [s·tq, (s+1)·tq) of q and [s·tk, (s+1)·tk)
// of k and v, and head h owns columns [h·dh, (h+1)·dh) of all three, with
// dh = d/heads. Per (sample, head) the output block is
//
//	softmax(q·kᵀ/√dh + mask)·v
//
// where mask, present when causal (which needs tq == tk), adds −1e9 above
// the diagonal. The result is [b·tq, d], heads side by side.
//
// Every sum runs in ascending index order from +0 with a separate multiply
// and add per term, which are the bits the same attention composed from
// SliceRows/SliceCols/Transpose/MatMul/Scale/Add/SoftmaxRows/ConcatCols/
// ConcatRows produces (internal/nn's tests keep that graph as the oracle).
// The node works in place on column ranges of its operands, saves only the
// probabilities for backward, and forms dq, dk and dv in one backward
// pass. q, k and v may be the same Var or have other consumers: each
// gradient block is summed from +0 and then added to the operand's buffer,
// v's first, then k's, then q's.
//
// The inner products always run at float64: they are not among the ops
// Tape.SetDType stages at reduced precision.
func Attention(q, k, v *Var, b, tq, tk, heads int, causal bool) *Var {
	if q.Value.Rank() != 2 || k.Value.Rank() != 2 || v.Value.Rank() != 2 || heads < 1 {
		panic(fmt.Sprintf("autograd: Attention shapes q %v k %v v %v, %d heads", q.Value.Shape, k.Value.Shape, v.Value.Shape, heads))
	}
	d := q.Value.Shape[1]
	if b < 1 || tq < 1 || tk < 1 || d%heads != 0 ||
		q.Value.Shape[0] != b*tq || k.Value.Shape[0] != b*tk || k.Value.Shape[1] != d ||
		v.Value.Shape[0] != b*tk || v.Value.Shape[1] != d {
		panic(fmt.Sprintf("autograd: Attention q %v k %v v %v do not pack b=%d tq=%d tk=%d over %d heads",
			q.Value.Shape, k.Value.Shape, v.Value.Shape, b, tq, tk, heads))
	}
	if causal && tq != tk {
		panic("autograd: causal Attention requires tq == tk")
	}
	dh := d / heads
	scale := 1 / math.Sqrt(float64(dh))
	tp := tapeOf(q, k, v)
	nd := tp.node(opGeneric, attentionBack, q, k, v)
	nd.idx = intsCap(nd.idx, 4)
	nd.idx[0], nd.idx[1], nd.idx[2], nd.idx[3] = b, tq, tk, heads
	nd.f0, nd.flag = scale, causal
	nd.buf = floatsCap(nd.buf, b*heads*tq*tk)
	// Scratch for one (sample, head): a transposed [dh, tk] operand block
	// (forward and backward), then backward's dS block and one gradient row.
	nd.buf2 = floatsCap(nd.buf2, dh*tk+tq*tk+dh)
	out := tp.result(nd, b*tq, d)
	attentionForward(out.Value.Data, nd.buf, nd.buf2[:dh*tk],
		q.Value.Data, k.Value.Data, v.Value.Data, b, tq, tk, heads, d, scale, causal)
	return out
}

// transposeBlock writes the [tk, dh] block of m (row stride d) starting at
// off into dst as [dh, tk], so that products against the block's columns
// become VecMat rows.
//
//mlperfvet:hotpath
func transposeBlock(dst, m []float64, off, d, tk, dh int) {
	for j := 0; j < tk; j++ {
		row := m[off+j*d:][:dh]
		for p, x := range row {
			dst[p*tk+j] = x
		}
	}
}

// attentionForward fills out [b·tq, d] and probs, one [tq, tk] block of
// softmax rows per (sample, head). kT is [dh, tk] scratch.
//
//mlperfvet:hotpath
func attentionForward(out, probs, kT, q, k, v []float64, b, tq, tk, heads, d int, scale float64, causal bool) {
	dh := d / heads
	for bi := 0; bi < b; bi++ {
		for h := 0; h < heads; h++ {
			qo, ko := bi*tq*d+h*dh, bi*tk*d+h*dh // the block's first elements
			p := probs[(bi*heads+h)*tq*tk:][:tq*tk]
			transposeBlock(kT, k, ko, d, tk, dh)
			for i := 0; i < tq; i++ {
				pr := p[i*tk:][:tk]
				// s = q_i·kᵀ, then ·scale, then + mask
				tensor.VecMat(pr, q[qo+i*d:], 1, kT, tk, dh)
				for j, s := range pr {
					s = scale * s
					if causal {
						// The composed graph adds the mask tensor, zeros
						// included; a variable keeps the add in the code.
						m := 0.0
						if j > i {
							m = -1e9
						}
						s += m
					}
					pr[j] = s
				}
				softmaxRow(pr)
				// out_i = P_i·v
				tensor.VecMat(out[qo+i*d:][:dh], pr, 1, v[ko:], d, tk)
			}
		}
	}
}

//mlperfvet:hotpath
func attentionBack(nd *node) {
	q, k, v := nd.a, nd.b, nd.c
	b, tq, tk, heads := nd.idx[0], nd.idx[1], nd.idx[2], nd.idx[3]
	d := q.Value.Shape[1]
	dh := d / heads
	scale := nd.f0
	dout := nd.out.Grad.Data
	qd, kd, vd := q.Value.Data, k.Value.Data, v.Value.Data
	vT, ds, acc := nd.buf2[:dh*tk], nd.buf2[dh*tk:][:tq*tk], nd.buf2[dh*tk+tq*tk:][:dh]

	for bi := 0; bi < b; bi++ {
		for h := 0; h < heads; h++ {
			qo, ko := bi*tq*d+h*dh, bi*tk*d+h*dh
			p := nd.buf[(bi*heads+h)*tq*tk:][:tq*tk]
			// dP = dout·vᵀ, then the softmax and scale backward in place:
			// dS = scale·(P·(dP − Σ_j dP·P)).
			transposeBlock(vT, vd, ko, d, tk, dh)
			for i := 0; i < tq; i++ {
				pr, dsr := p[i*tk:][:tk], ds[i*tk:][:tk]
				tensor.VecMat(dsr, dout[qo+i*d:], 1, vT, tk, dh)
				dot := 0.0
				for j, g := range dsr {
					dot += g * pr[j]
				}
				for j, g := range dsr {
					dsr[j] = scale * (pr[j] * (g - dot))
				}
			}
			// Each gradient row is summed from +0 in acc and then added
			// to its operand's buffer: v's rows, then k's, then q's, the
			// order in which the composed graph reaches a shared operand.
			if v.tape != nil {
				// dv = Pᵀ·dout
				for j := 0; j < tk; j++ {
					tensor.VecMat(acc, p[j:], tk, dout[qo:], d, tq)
					addRow(v.Grad.Data[ko+j*d:], acc)
				}
			}
			if k.tape != nil {
				// dk = dSᵀ·q
				for j := 0; j < tk; j++ {
					tensor.VecMat(acc, ds[j:], tk, qd[qo:], d, tq)
					addRow(k.Grad.Data[ko+j*d:], acc)
				}
			}
			if q.tape != nil {
				// dq = dS·k
				for i := 0; i < tq; i++ {
					tensor.VecMat(acc, ds[i*tk:], 1, kd[ko:], d, tk)
					addRow(q.Grad.Data[qo+i*d:], acc)
				}
			}
		}
	}
}

// addRow adds src into the front of dst.
//
//mlperfvet:hotpath
func addRow(dst, src []float64) {
	dst = dst[:len(src)]
	for x, g := range src {
		dst[x] += g
	}
}
