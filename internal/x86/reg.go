// Package x86 models the subset of the x86-64 instruction set that COMET
// perturbs and explains: general-purpose and SSE/AVX registers, operand
// kinds and sizes, an instruction specification table with per-form operand
// access information, an Intel-syntax parser and printer, and per-
// microarchitecture performance attributes consumed by the cost models.
//
// The package is self-contained (stdlib only) and deterministic; the
// instruction table is synthetic but follows the qualitative orderings
// published by uops.info and Agner Fog's tables (div is far more expensive
// than imul, which is more expensive than simple ALU ops; loads take a few
// cycles; vector divides dominate vector multiplies).
package x86

import (
	"fmt"
	"strings"
)

// RegFamily identifies an architectural register ignoring its access width:
// eax and rax belong to the same family. Data dependencies are tracked at
// family granularity, which matches how modern renamed register files (and
// the paper's multigraph) treat partial-width accesses.
type RegFamily int

// Register families. FamNone is the zero value, used for absent base/index
// registers in memory operands.
const (
	FamNone RegFamily = iota
	FamRAX
	FamRBX
	FamRCX
	FamRDX
	FamRSI
	FamRDI
	FamRBP
	FamRSP
	FamR8
	FamR9
	FamR10
	FamR11
	FamR12
	FamR13
	FamR14
	FamR15
	FamXMM0
	FamXMM1
	FamXMM2
	FamXMM3
	FamXMM4
	FamXMM5
	FamXMM6
	FamXMM7
	FamXMM8
	FamXMM9
	FamXMM10
	FamXMM11
	FamXMM12
	FamXMM13
	FamXMM14
	FamXMM15
	FamFlags // pseudo-family for RFLAGS

	// NumFamilies is one past the last family: family indices are
	// 0..NumFamilies-1.
	NumFamilies
)

// Operand and register widths, in bits.
const (
	Size8   = 8
	Size16  = 16
	Size32  = 32
	Size64  = 64
	Size128 = 128
	Size256 = 256
)

// Reg is a concrete architectural register: a family viewed at a width.
// The zero Reg (FamNone) means "no register".
type Reg struct {
	Family RegFamily
	Size   int // bits
}

// IsZero reports whether r denotes the absence of a register.
func (r Reg) IsZero() bool { return r.Family == FamNone }

// IsGP reports whether r is a general-purpose integer register.
func (r Reg) IsGP() bool { return r.Family >= FamRAX && r.Family <= FamR15 }

// IsVec reports whether r is an SSE/AVX vector register.
func (r Reg) IsVec() bool { return r.Family >= FamXMM0 && r.Family <= FamXMM15 }

var gpNames = [FamR15 + 1][4]string{
	// order: 64, 32, 16, 8-bit names
	FamRAX: {"rax", "eax", "ax", "al"},
	FamRBX: {"rbx", "ebx", "bx", "bl"},
	FamRCX: {"rcx", "ecx", "cx", "cl"},
	FamRDX: {"rdx", "edx", "dx", "dl"},
	FamRSI: {"rsi", "esi", "si", "sil"},
	FamRDI: {"rdi", "edi", "di", "dil"},
	FamRBP: {"rbp", "ebp", "bp", "bpl"},
	FamRSP: {"rsp", "esp", "sp", "spl"},
	FamR8:  {"r8", "r8d", "r8w", "r8b"},
	FamR9:  {"r9", "r9d", "r9w", "r9b"},
	FamR10: {"r10", "r10d", "r10w", "r10b"},
	FamR11: {"r11", "r11d", "r11w", "r11b"},
	FamR12: {"r12", "r12d", "r12w", "r12b"},
	FamR13: {"r13", "r13d", "r13w", "r13b"},
	FamR14: {"r14", "r14d", "r14w", "r14b"},
	FamR15: {"r15", "r15d", "r15w", "r15b"},
}

func sizeIndex(size int) int {
	switch size {
	case Size64:
		return 0
	case Size32:
		return 1
	case Size16:
		return 2
	case Size8:
		return 3
	}
	return -1
}

// vecNames holds the xmm and ymm names of each vector family.
var vecNames = func() (names [16][2]string) {
	for i := range names {
		names[i] = [2]string{fmt.Sprintf("xmm%d", i), fmt.Sprintf("ymm%d", i)}
	}
	return names
}()

// String returns the canonical Intel-syntax name of the register
// ("rax", "eax", "xmm3", "ymm3", ...).
func (r Reg) String() string {
	switch {
	case r.IsZero():
		return "<none>"
	case r.Family == FamFlags:
		return "rflags"
	case r.IsGP():
		i := sizeIndex(r.Size)
		if i < 0 {
			return fmt.Sprintf("<bad gp size %d>", r.Size)
		}
		return gpNames[r.Family][i]
	case r.IsVec():
		switch r.Size {
		case Size128:
			return vecNames[r.Family-FamXMM0][0]
		case Size256:
			return vecNames[r.Family-FamXMM0][1]
		}
		return fmt.Sprintf("<bad vec size %d>", r.Size)
	}
	return fmt.Sprintf("<bad reg %d/%d>", r.Family, r.Size)
}

var regByName = buildRegByName()

func buildRegByName() map[string]Reg {
	m := make(map[string]Reg)
	for fam, names := range gpNames {
		if fam == int(FamNone) {
			continue
		}
		for i, name := range names {
			size := []int{Size64, Size32, Size16, Size8}[i]
			m[name] = Reg{Family: RegFamily(fam), Size: size}
		}
	}
	for i, names := range vecNames {
		fam := FamXMM0 + RegFamily(i)
		m[names[0]] = Reg{Family: fam, Size: Size128}
		m[names[1]] = Reg{Family: fam, Size: Size256}
	}
	return m
}

// LookupReg resolves an Intel-syntax register name, case-insensitively.
func LookupReg(name string) (Reg, bool) {
	r, ok := regByName[strings.ToLower(name)]
	return r, ok
}

// gpFamilies and vecFamilies back GPFamilies and VecFamilies.
var (
	gpFamilies  = familyRange(FamRAX, FamR15)
	vecFamilies = familyRange(FamXMM0, FamXMM15)
)

func familyRange(lo, hi RegFamily) []RegFamily {
	fams := make([]RegFamily, 0, hi-lo+1)
	for f := lo; f <= hi; f++ {
		fams = append(fams, f)
	}
	return fams
}

// GPFamilies lists the sixteen general-purpose register families in
// encoding order. RSP is included; callers that must avoid perturbing the
// stack pointer filter it out explicitly. The slice is shared: callers
// must not mutate it.
func GPFamilies() []RegFamily { return gpFamilies }

// VecFamilies lists the sixteen xmm/ymm register families. The slice is
// shared: callers must not mutate it.
func VecFamilies() []RegFamily { return vecFamilies }

// FamilyName returns the 64-bit (or xmm) name of a family, used in
// dependency-location keys and diagnostics.
func FamilyName(f RegFamily) string {
	switch {
	case f == FamNone:
		return "<none>"
	case f == FamFlags:
		return "rflags"
	case f >= FamRAX && f <= FamR15:
		return gpNames[f][0]
	case f >= FamXMM0 && f <= FamXMM15:
		return vecNames[f-FamXMM0][0]
	}
	return fmt.Sprintf("<fam %d>", int(f))
}
