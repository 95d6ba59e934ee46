package tensor

import "testing"

// TestCPUGates is the gate predicate on every input that must close a
// gate, read from a table instead of this CPU, so it runs on any amd64
// host: the OS not saving a register file closes every gate that needs
// it whatever CPUID claims, and a missing instruction set closes its own.
func TestCPUGates(t *testing.T) {
	const (
		ecx1 = cpuidOSXSAVE | cpuidAVX
		both = cpuidAVX2 | cpuidAVX512F
		xcr0 = 0xE7 // x87, SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, tc := range []struct {
		name              string
		ecx1, ebx7, xcr0  uint32
		wantAVX2, want512 bool
	}{
		{"everything", ecx1, both, xcr0, true, true},
		{"exactly the bits", ecx1, both, xcr0ZMM, true, true},
		{"OSXSAVE missing", cpuidAVX, both, xcr0, false, false},
		{"AVX missing", cpuidOSXSAVE, both, xcr0, false, false},
		{"XCR0 without YMM state", ecx1, both, xcr0 &^ 0x4, false, false},
		{"XCR0 without XMM state", ecx1, both, xcr0 &^ 0x2, false, false},
		{"XCR0 without opmask or ZMM state", ecx1, both, xcr0 &^ 0xE0, true, false},
		{"XCR0 without opmask state", ecx1, both, xcr0 &^ 0x20, true, false},
		{"XCR0 without ZMM_Hi256 state", ecx1, both, xcr0 &^ 0x40, true, false},
		{"XCR0 without Hi16_ZMM state", ecx1, both, xcr0 &^ 0x80, true, false},
		{"AVX512F missing", ecx1, cpuidAVX2 | 0xFFFF0000&^cpuidAVX512F, xcr0, true, false},
		{"AVX2 alone", ecx1, cpuidAVX2, xcr0, true, false},
		{"AVX512F without AVX2", ecx1, cpuidAVX512F, xcr0, false, false},
		{"nothing", 0, 0, 0, false, false},
	} {
		avx2, avx512 := cpuGates(tc.ecx1, tc.ebx7, tc.xcr0)
		if avx2 != tc.wantAVX2 || avx512 != tc.want512 {
			t.Errorf("%s: cpuGates(%#x, %#x, %#x) = %v, %v, want %v, %v",
				tc.name, tc.ecx1, tc.ebx7, tc.xcr0, avx2, avx512, tc.wantAVX2, tc.want512)
		}
	}
}
