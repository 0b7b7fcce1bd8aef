package gpu

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"flame/internal/isa"
)

// Memory-fault geometry of TestMemFaultLowestLane: one 32-thread block.
// Each lane reads its effective address from a host-written table at
// the start of global memory, then runs one ld/st/atom on it.
const (
	mfMemBytes   = 1 << 20
	mfShared     = 256 // .shared bytes: lane l's word is l*4
	mfLocal      = 16  // .local bytes per thread: every lane uses word 1
	mfParamWords = isa.Lanes
	mfSentinel   = 0xDEAD // ld destination before the load
)

// mfGood is lane l's in-bounds, aligned address in the space. Global
// lanes each own a page (page l+1; page 0 holds the table), so the
// dirty bitmap names exactly the lanes whose stores committed.
func mfGood(space isa.Space, lane int) uint32 {
	switch space {
	case isa.SpaceGlobal:
		return uint32((lane+1)*PageBytes + 8)
	case isa.SpaceLocal:
		return 4
	}
	return uint32(lane * 4)
}

// mfBad returns a faulting address of the given kind for lane l.
func mfBad(space isa.Space, lane int, misaligned bool) uint32 {
	if misaligned {
		return mfGood(space, lane) + 2
	}
	switch space {
	case isa.SpaceGlobal:
		return mfMemBytes + uint32(lane*4)
	case isa.SpaceShared:
		return mfShared
	case isa.SpaceLocal:
		return mfLocal
	}
	return mfParamWords * 4
}

func mfValid(space isa.Space, addr uint32) bool {
	words := map[isa.Space]int{isa.SpaceGlobal: mfMemBytes / 4, isa.SpaceShared: mfShared / 4,
		isa.SpaceLocal: mfLocal / 4, isa.SpaceParam: mfParamWords}[space]
	return addr%4 == 0 && int(addr/4) < words
}

// mfExpect models the lane-ordered access: it returns the MemFault of
// the lowest faulting lane and the lanes below it whose access ran.
func mfExpect(op isa.Opcode, space isa.Space, addrs []uint32) (MemFault, uint32) {
	for lane, a := range addrs {
		if !mfValid(space, a) {
			// An atomic reads before it writes, so it faults as a load.
			kind := "load"
			if op == isa.OpSt {
				kind = "store"
			}
			return MemFault{Space: space, Addr: a, Op: kind}, 1<<uint(lane) - 1
		}
	}
	return MemFault{}, ^uint32(0)
}

// TestMemFaultLowestLane pins the fault behaviour of every memory
// instruction in every address space the ISA accepts it in (stores to
// param space and atomics outside global and shared memory are
// rejected when the program is validated): with misaligned and
// out-of-bounds addresses in one or two lane positions, the launch fails with the
// MemFault of the lowest faulting lane, every lower lane's access has
// run (loads wrote their destination, stores and atomics committed, and
// exactly their global pages are dirty), and no higher lane's has.
func TestMemFaultLowestLane(t *testing.T) {
	spaces := []isa.Space{isa.SpaceGlobal, isa.SpaceShared, isa.SpaceLocal, isa.SpaceParam}
	type fault struct {
		lane       int
		misaligned bool
	}
	layouts := [][]fault{
		{{0, false}}, {{0, true}},
		{{13, false}}, {{13, true}},
		{{31, false}}, {{31, true}},
		{{9, true}, {22, false}},
		{{9, false}, {22, true}},
	}
	for _, op := range []isa.Opcode{isa.OpLd, isa.OpSt, isa.OpAtom} {
		for _, space := range spaces {
			for _, faults := range layouts {
				name := fmt.Sprintf("%s.%s/%v", op, space, faults)
				t.Run(name, func(t *testing.T) {
					addrs := make([]uint32, isa.Lanes)
					for lane := range addrs {
						addrs[lane] = mfGood(space, lane)
					}
					for _, f := range faults {
						addrs[f.lane] = mfBad(space, f.lane, f.misaligned)
					}
					runMemFaultCase(t, op, space, addrs)
				})
			}
		}
	}
}

func runMemFaultCase(t *testing.T, op isa.Opcode, space isa.Space, addrs []uint32) {
	t.Helper()
	var access string
	switch op {
	case isa.OpLd:
		access = fmt.Sprintf("ld.%s r4, [r2]", space)
	case isa.OpSt:
		access = fmt.Sprintf("st.%s [r2], r3", space)
	default:
		access = fmt.Sprintf("atom.%s.add r4, [r2], r3", space)
	}
	src := fmt.Sprintf(`
.shared %d
.local %d
    mov r0, %%tid.x
    shl r1, r0, 2
    ld.global r2, [r1]
    add r3, r0, 100
    mov r4, %d
    %s
    exit
`, mfShared, mfLocal, mfSentinel, access)
	d, err := NewDevice(smallConfig(), mfMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	mem := d.Mem.Words()
	copy(mem, addrs)
	for lane := 0; lane < isa.Lanes; lane++ {
		mem[mfGood(isa.SpaceGlobal, lane)/4] = 0x1000 + uint32(lane)
	}
	params := make([]uint32, mfParamWords)
	for i := range params {
		params[i] = 0x2000 + uint32(i)
	}
	prog, err := isa.Parse("memfault", src)
	if rejected := op == isa.OpSt && space == isa.SpaceParam ||
		op == isa.OpAtom && space != isa.SpaceGlobal && space != isa.SpaceShared; rejected {
		if err == nil {
			t.Fatalf("%s accepted", access)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	l := &Launch{Prog: prog, Grid: isa.Dim3{X: 1},
		Block: isa.Dim3{X: isa.Lanes}, Params: params}
	_, err = d.Run(l, nil)

	want, ran := mfExpect(op, space, addrs)
	var got *MemFault
	if !errors.As(err, &got) {
		t.Fatalf("err = %v, want %v", err, &want)
	}
	if *got != want || got.Error() != want.Error() {
		t.Fatalf("fault = %v, want %v", got, &want)
	}

	sm := d.SMs[0]
	w := sm.Warps[0]
	// before is lane l's word at its address before the access; word
	// returns it now (only valid addresses are read).
	before := func(lane int) uint32 {
		switch space {
		case isa.SpaceGlobal:
			return 0x1000 + uint32(lane)
		case isa.SpaceParam:
			return 0x2000 + uint32(lane)
		}
		return 0
	}
	word := func(lane int) uint32 {
		a := addrs[lane] / 4
		switch space {
		case isa.SpaceGlobal:
			return mem[a]
		case isa.SpaceShared:
			return sm.Blocks[0].Shared[a]
		case isa.SpaceLocal:
			return w.local(lane)[a]
		}
		return params[a]
	}
	var dirty []uint64
	for lane := 0; lane < isa.Lanes; lane++ {
		done := ran&(1<<uint(lane)) != 0
		wantReg, wantWord := uint32(mfSentinel), before(lane)
		if done {
			switch op {
			case isa.OpLd:
				wantReg = before(lane)
			case isa.OpSt:
				wantWord = uint32(lane) + 100
			default:
				wantReg, wantWord = before(lane), before(lane)+uint32(lane)+100
			}
		}
		if op != isa.OpSt {
			if r := w.Reg(lane, 4); r != wantReg {
				t.Errorf("lane %d: r4 = %#x, want %#x", lane, r, wantReg)
			}
		}
		if mfValid(space, addrs[lane]) {
			if v := word(lane); v != wantWord {
				t.Errorf("lane %d: word at %#x = %#x, want %#x", lane, addrs[lane], v, wantWord)
			}
		}
		if done && op != isa.OpLd && space == isa.SpaceGlobal {
			p := int(addrs[lane]) / PageBytes
			for len(dirty) <= p/64 {
				dirty = append(dirty, 0)
			}
			dirty[p/64] |= 1 << uint(p%64)
		}
	}
	gotDirty := d.Mem.DirtyPages()
	for i, m := range gotDirty {
		var wantM uint64
		if i < len(dirty) {
			wantM = dirty[i]
		}
		if m != wantM {
			t.Errorf("dirty bitmap word %d = %#x, want %#x (%d lanes ran)", i, m, wantM, bits.OnesCount32(ran))
		}
	}
}
