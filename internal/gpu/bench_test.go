package gpu

import (
	"testing"

	"flame/internal/isa"
)

// computeBoundSrc keeps the ALU pipelines busy: a long dependent FMA
// chain per thread with almost no memory traffic; the benchmark
// measures raw per-cycle stepping cost and allocation churn.
const computeBoundSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    mov r4, 1065353216
    mov r5, 1036831949
    mov r6, 0
LOOP:
    fma r4, r4, r5, r5
    fma r4, r4, r5, r5
    fma r4, r4, r5, r5
    fma r4, r4, r5, r5
    add r6, r6, 1
    setp.lt p0, r6, 64
@p0 bra LOOP
    ld.param r7, [0]
    shl r8, r3, 2
    add r9, r7, r8
    st.global [r9], r4
    exit
`

// latencyBoundSrc is a pointer chase: each load's address is the
// previous load's value, so a warp stalls the full DRAM latency per
// step, and with one warp per block there is not enough parallelism to
// hide it. Most cycles, every scheduler in the device is waiting on an
// outstanding miss, so the benchmark measures the cost of a stalled
// cycle.
const latencyBoundSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    ld.param r10, [0]
    shl r4, r3, 2
    mov r5, 0
LOOP:
    add r7, r10, r4
    ld.global r4, [r7]
    add r5, r5, 1
    setp.lt p0, r5, 16
@p0 bra LOOP
    ld.param r11, [4]
    shl r12, r3, 2
    add r13, r11, r12
    st.global [r13], r4
    exit
`

// streamBoundSrc is a strided global-memory streamer: every warp misses
// L1 constantly and the device saturates DRAM bandwidth: the
// bandwidth-bound (rather than latency-bound) case.
const streamBoundSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    mov r4, 0
    mov r5, 0
LOOP:
    mov r6, %nctaid.x
    mul r7, r6, r2
    mad r8, r4, r7, r3
    shl r9, r8, 2
    ld.param r10, [0]
    add r11, r10, r9
    ld.global r12, [r11]
    add r5, r5, r12
    add r4, r4, 1
    setp.lt p0, r4, 16
@p0 bra LOOP
    ld.param r13, [4]
    shl r14, r3, 2
    add r15, r13, r14
    st.global [r15], r5
    exit
`

func benchDevice(b *testing.B) *Device {
	b.Helper()
	cfg := GTX480()
	cfg.NumSMs = 4
	d, err := NewDevice(cfg, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	// First 1 MiB doubles as the pointer-chase table: scattered 4-byte-
	// aligned byte addresses within the same 1 MiB (far beyond L2).
	for i := 0; i < 1<<18; i++ {
		d.Mem.Words()[i] = uint32(i*7919+13) * 4 & (1<<20 - 1)
	}
	for i := 1 << 18; i < 1<<20; i++ {
		d.Mem.Words()[i] = uint32(i)
	}
	return d
}

func benchRun(b *testing.B, src, name string, grid, block isa.Dim3) {
	d := benchDevice(b)
	prog := isa.MustParse(name, src)
	l := &Launch{
		Prog: prog, Grid: grid, Block: block,
		Params: []uint32{0, 1 << 20},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		st, err := d.Run(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkDeviceRun measures kernel simulation throughput on a
// compute-bound, a bandwidth-bound and a latency-bound kernel.
func BenchmarkDeviceRun(b *testing.B) {
	wide, narrow := isa.Dim3{X: 32}, isa.Dim3{X: 128}
	one := isa.Dim3{X: 32}
	b.Run("compute", func(b *testing.B) { benchRun(b, computeBoundSrc, "compute", wide, narrow) })
	b.Run("stream", func(b *testing.B) { benchRun(b, streamBoundSrc, "stream", wide, narrow) })
	b.Run("memory", func(b *testing.B) { benchRun(b, latencyBoundSrc, "memory", isa.Dim3{X: 8}, one) })
}
