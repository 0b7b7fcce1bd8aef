// Iterative application: a thermal simulation run as repeated kernel
// launches on one device (state persists in device memory), protected by
// Flame throughout, with a soft error struck in a random launch of every
// simulation — the end state must match the fault-free golden run
// bit-exactly.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"flame"
	"flame/internal/core"
	flamehw "flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// hotspotStep: one 5-point stencil sweep from buffer A to buffer B.
const hotspotStep = `
    mov r0, %tid.x
    mov r1, %tid.y
    mov r2, %ctaid.x
    mov r3, %ctaid.y
    ld.param r4, [0]        // &in
    ld.param r5, [4]        // &out
    ld.param r6, [8]        // N
    shl r7, r2, 4
    add r7, r7, r0          // x
    shl r8, r3, 4
    add r8, r8, r1          // y
    sub r9, r6, 1
    add r10, r7, 1
    min r10, r10, r9
    sub r11, r7, 1
    max r11, r11, 0
    add r12, r8, 1
    min r12, r12, r9
    sub r13, r8, 1
    max r13, r13, 0
    mad r14, r8, r6, r7
    shl r15, r14, 2
    add r16, r4, r15
    ld.global r17, [r16]
    mad r18, r8, r6, r10
    shl r19, r18, 2
    add r20, r4, r19
    ld.global r21, [r20]
    mad r18, r8, r6, r11
    shl r19, r18, 2
    add r20, r4, r19
    ld.global r22, [r20]
    mad r18, r12, r6, r7
    shl r19, r18, 2
    add r20, r4, r19
    ld.global r23, [r20]
    mad r18, r13, r6, r7
    shl r19, r18, 2
    add r20, r4, r19
    ld.global r24, [r20]
    fadd r25, r21, r22
    fadd r25, r25, r23
    fadd r25, r25, r24
    fmul r26, r17, 4.0f
    fsub r27, r25, r26
    fma r28, r27, 0.05f, r17
    add r29, r5, r15
    st.global [r29], r28
    exit
`

const (
	n     = 64
	iters = 6
)

// simulate runs the full iterative simulation, optionally injecting one
// fault in launch faultAt; it returns the final grid.
func simulate(faultAt int, seed int64) []uint32 {
	cfg := flame.GTX480()
	cfg.NumSMs = 4
	dev, err := gpu.NewDevice(cfg, 1<<19)
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < n*n; i++ {
		dev.Mem.Words()[i] = isa.F32Bits(1 + float32(r.Intn(1000))/1000)
	}

	prog := flame.MustAssemble("hotspot-step", hotspotStep)
	comp, err := core.Compile(prog, core.FlameOptions())
	if err != nil {
		log.Fatal(err)
	}
	bufA, bufB := uint32(0), uint32(4*n*n)
	for it := 0; it < iters; it++ {
		ctl := flamehw.NewController(flamehw.Mode{WCDL: 20, UseRBQ: true, Sections: comp.Sections})
		if it == faultAt {
			ctl.Inj = flamehw.NewInjector(flamehw.NewSites(comp.Prog), 100, 20, seed)
		}
		launch := &gpu.Launch{
			Prog: comp.Prog,
			Grid: isa.Dim3{X: n / 16, Y: n / 16}, Block: isa.Dim3{X: 16, Y: 16},
			Params: []uint32{bufA, bufB, n},
		}
		if _, err := dev.Run(launch, ctl.Hooks()); err != nil {
			log.Fatal(err)
		}
		if ctl.Inj != nil && ctl.Inj.Injected {
			fmt.Printf("  launch %d: %s -> detected %d cycles later, recovered\n",
				it, ctl.Inj.Description, ctl.Inj.DetectedAt-ctl.Inj.InjectedAt)
		}
		bufA, bufB = bufB, bufA
	}
	out := make([]uint32, n*n)
	copy(out, dev.Mem.Words()[bufA/4:bufA/4+n*n])
	return out
}

func main() {
	fmt.Printf("iterative hotspot: %d sweeps of a %dx%d grid under Flame\n", iters, n, n)
	golden := simulate(-1, 0)
	for trial := int64(1); trial <= 4; trial++ {
		faultLaunch := int(trial) % iters
		fmt.Printf("trial %d (fault in launch %d):\n", trial, faultLaunch)
		got := simulate(faultLaunch, trial)
		for i := range golden {
			if got[i] != golden[i] {
				log.Fatalf("trial %d: grid[%d] differs from fault-free golden", trial, i)
			}
		}
		fmt.Println("  final grid bit-exact vs fault-free golden")
	}
	fmt.Println("all trials recovered to the exact fault-free state")
}
