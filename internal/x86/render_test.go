package x86

import (
	"math"
	"testing"
)

// TestRenderEdgeCases pins the Intel-syntax and location-key text of
// operands the parser never produces but programmatic and perturbed blocks
// can: bare and negative displacements, scale 1, unknown widths and
// malformed registers. Cache keys and store addresses are built from this
// text, so it must not drift.
func TestRenderEdgeCases(t *testing.T) {
	rbx := Reg{Family: FamRBX, Size: Size64}
	ecx := Reg{Family: FamRCX, Size: Size32}
	cases := []struct {
		op     Operand
		text   string
		locKey string
	}{
		{NewMem(MemRef{Disp: -5}, Size64), "qword ptr [ - 5]", "[-5]"},
		{NewMem(MemRef{}, Size8), "byte ptr [0]", "[+0]"},
		{NewMem(MemRef{Disp: 7}, Size16), "word ptr [7]", "[+7]"},
		{NewMem(MemRef{Base: rbx, Index: ecx, Scale: 1, Disp: 0}, Size32), "dword ptr [rbx + ecx]", "[rbx+rcx*1+0]"},
		{NewMem(MemRef{Index: ecx, Scale: 4, Disp: 64}, Size128), "xmmword ptr [ecx*4 + 64]", "[+rcx*4+64]"},
		{NewMem(MemRef{Base: rbx, Disp: math.MinInt64}, Size256), "ymmword ptr [rbx - -9223372036854775808]", "[rbx-9223372036854775808]"},
		{NewMem(MemRef{Base: rbx, Disp: 3}, 7), "size7 ptr [rbx + 3]", "[rbx+3]"},
		{NewAddr(MemRef{Base: Reg{Family: FamXMM3, Size: Size128}, Disp: -1}), "[xmm3 - 1]", "[xmm3-1]"},
		{NewImm(-42, Size8), "-42", ""},
		{NewReg(Reg{Family: FamRAX, Size: 7}), "<bad gp size 7>", ""},
		{NewReg(Reg{Family: FamXMM2, Size: Size64}), "<bad vec size 64>", ""},
		{NewReg(Reg{Family: FamFlags, Size: Size64}), "rflags", ""},
		{NewReg(Reg{}), "<none>", ""},
		{NewReg(Reg{Family: 99, Size: Size64}), "<bad reg 99/64>", ""},
		{NewMem(MemRef{Base: Reg{Family: 99, Size: Size64}}, Size64), "qword ptr [<bad reg 99/64>]", "[<fam 99>+0]"},
		{Operand{Kind: 9}, "<bad operand>", ""},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.text {
			t.Errorf("Operand.String() = %q, want %q", got, c.text)
		}
		if c.locKey != "" {
			if got := c.op.Mem.LocKey(); got != c.locKey {
				t.Errorf("LocKey() of %q = %q, want %q", c.text, got, c.locKey)
			}
		}
	}
	inst := Instruction{Opcode: "add", Operands: []Operand{NewReg(rbx), NewImm(1, Size8)}}
	b := NewBlock(inst, Instruction{Opcode: "cqo"}, inst)
	if got, want := b.String(), "add rbx, 1\ncqo\nadd rbx, 1"; got != want {
		t.Errorf("BasicBlock.String() = %q, want %q", got, want)
	}
	if got := NewBlock().String(); got != "" {
		t.Errorf("empty block renders %q", got)
	}
}
