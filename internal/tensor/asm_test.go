package tensor

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches the x86 fused multiply-add mnemonics, every form and
// width: one rounding where the contract takes two.
var fusedOp = regexp.MustCompile(`(?i)\bVF(N?)M(ADD|SUB)`)

// TestNoFusedMultiplyAddInAssembly is detlint's FMA ban where it cannot
// look: the package's assembly. Every kernel keeps the scalar sequence of
// a separate multiply and add, so a fused instruction in any *_amd64.s,
// comments aside, fails here naming its file and line.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly found to scan (%v)", err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			code, _, _ := strings.Cut(sc.Text(), "//")
			if fusedOp.MatchString(code) {
				t.Errorf("%s:%d: %s: a fused multiply-add rounds once where the kernels' contract rounds twice", name, line, strings.TrimSpace(code))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}
