package memsim

import (
	"flag"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func testDRAM(t *testing.T) *DRAM {
	t.Helper()
	d, err := NewDRAM(device.Virtex7690T().DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDRAMRejectsBadSpec(t *testing.T) {
	bad := []device.DRAMSpec{
		{},
		{Banks: 8, RowBytes: 2048, BurstBytes: 64},                                  // no clock
		{Banks: 0, RowBytes: 2048, BurstBytes: 64, ClockHz: 1, PeakBandwidth: 1},    // no banks
		{Banks: 8, RowBytes: 0, BurstBytes: 64, ClockHz: 1, PeakBandwidth: 1},       // no row
		{Banks: 8, RowBytes: 2048, BurstBytes: 0, ClockHz: 1e9, PeakBandwidth: 1e9}, // no burst
		{Banks: 8, RowBytes: 2048, BurstBytes: 64, ClockHz: math.Inf(1), PeakBandwidth: 1e9},
		{Banks: 8, RowBytes: 2048, BurstBytes: 64, ClockHz: 1e9, PeakBandwidth: math.NaN()},
		{Banks: 8, RowBytes: 2048, BurstBytes: 64, ClockHz: 1e9, PeakBandwidth: 1e9, RowMissCycles: -1},
		{Banks: 8, RowBytes: 2048, BurstBytes: 64, ClockHz: 1e9, PeakBandwidth: 1e9, TransCycles: -260},
		{Banks: 2, RowBytes: math.MaxInt, BurstBytes: 64, ClockHz: 1e9, PeakBandwidth: 1e9}, // banks·row overflows
	}
	for i, spec := range bad {
		if _, err := NewDRAM(spec); err == nil {
			t.Errorf("spec %d: want error", i)
		}
	}
}

func TestContiguousNeverSlowerThanStrided(t *testing.T) {
	d := testDRAM(t)
	f := func(nRaw uint16, strideRaw uint8) bool {
		n := int64(nRaw)%10000 + 64
		stride := int64(strideRaw)%1000 + 2
		d.Reset()
		cont, err := d.StreamSeconds(0, n, 4, 1)
		if err != nil {
			return false
		}
		d.Reset()
		str, err := d.StreamSeconds(0, n, 4, stride)
		if err != nil {
			return false
		}
		return cont <= str
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamTimeMonotonicInSize(t *testing.T) {
	d := testDRAM(t)
	prev := 0.0
	for _, n := range []int64{100, 1000, 10000, 100000, 1000000} {
		d.Reset()
		s, err := d.StreamSeconds(0, n, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("n=%d: %v not greater than previous %v", n, s, prev)
		}
		prev = s
	}
}

func TestContiguousApproachesPeak(t *testing.T) {
	// A very large contiguous stream must sustain close to peak: the
	// only loss is the row-crossing penalty.
	d := testDRAM(t)
	spec := device.Virtex7690T().DRAM
	n := int64(16 << 20)
	s, err := d.StreamSeconds(0, n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bw := float64(n*4) / s
	if bw > spec.PeakBandwidth {
		t.Errorf("sustained %v exceeds peak %v", bw, spec.PeakBandwidth)
	}
	if bw < 0.85*spec.PeakBandwidth {
		t.Errorf("sustained %v below 85%% of peak %v", bw, spec.PeakBandwidth)
	}
}

func TestLargeStrideWastesBursts(t *testing.T) {
	// Stride beyond the row size forces a transaction and an activation
	// per element: sustained bandwidth must collapse by >= an order of
	// magnitude versus contiguous.
	d := testDRAM(t)
	n := int64(1 << 20)
	cont, err := d.StreamSeconds(0, n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	str, err := d.StreamSeconds(0, n, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if str < 10*cont {
		t.Errorf("strided %v not >= 10x contiguous %v", str, cont)
	}
}

func TestNegativeStrideCostsLikePositive(t *testing.T) {
	d := testDRAM(t)
	d.Reset()
	a, _ := d.StreamSeconds(1<<20, 1000, 4, 64)
	d.Reset()
	b, _ := d.StreamSeconds(1<<20, 1000, 4, -64)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("mirror stream cost differs: %v vs %v", a, b)
	}
}

func TestStreamSecondsEdgeCases(t *testing.T) {
	d := testDRAM(t)
	if s, err := d.StreamSeconds(0, 0, 4, 1); err != nil || s != 0 {
		t.Errorf("zero elements: %v, %v", s, err)
	}
	if _, err := d.StreamSeconds(0, 10, 0, 1); err == nil {
		t.Error("zero element size: want error")
	}
	// Stride 0 is treated as contiguous.
	d.Reset()
	a, err := d.StreamSeconds(0, 100, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	b, _ := d.StreamSeconds(0, 100, 4, 1)
	if a != b {
		t.Errorf("stride 0 (%v) != stride 1 (%v)", a, b)
	}
}

func TestRowBufferLocality(t *testing.T) {
	// Two consecutive sweeps of the same small region: the second sweep
	// must be cheaper or equal, because rows stay open.
	d := testDRAM(t)
	first, err := d.StreamSeconds(0, 256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.StreamSeconds(0, 256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if second > first {
		t.Errorf("second sweep (%v) slower than first (%v) despite open rows", second, first)
	}
}

func TestRandomAccessMatchesStrided(t *testing.T) {
	// The paper's §V-C observation: "there is little difference in
	// sustained bandwidth between fixed-stride and true random access".
	// Both defeat coalescing and pay the transaction round trip.
	d := testDRAM(t)
	n := int64(1 << 18)
	d.Reset()
	strided, err := d.StreamSeconds(0, n, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	random, err := d.RandomSeconds(42, n, 4, n*4096)
	if err != nil {
		t.Fatal(err)
	}
	ratio := random / strided
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("random/strided time ratio = %.3f; the paper reports little difference", ratio)
	}
}

func TestRandomAccessErrors(t *testing.T) {
	d := testDRAM(t)
	if s, err := d.RandomSeconds(1, 0, 4, 1024); err != nil || s != 0 {
		t.Errorf("zero accesses: %v, %v", s, err)
	}
	if _, err := d.RandomSeconds(1, 10, 0, 1024); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := d.RandomSeconds(1, 10, 4, 4); err == nil {
		t.Error("degenerate window accepted")
	}
}

func TestRandomAccessDeterministic(t *testing.T) {
	d := testDRAM(t)
	d.Reset()
	a, _ := d.RandomSeconds(7, 1000, 4, 1<<20)
	d.Reset()
	b, _ := d.RandomSeconds(7, 1000, 4, 1<<20)
	if a != b {
		t.Errorf("same seed, different cost: %v vs %v", a, b)
	}
}

func TestLinkModel(t *testing.T) {
	l, err := NewLink(device.StratixVGSD8().Link)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.TransferSeconds(0); got != 0 {
		t.Errorf("zero bytes: %v", got)
	}
	// Sustained bandwidth grows with transfer size (latency amortised)
	// and never exceeds the derated payload rate.
	spec := device.StratixVGSD8().Link
	prev := 0.0
	for _, b := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26} {
		bw := l.SustainedBandwidth(b)
		if bw <= prev {
			t.Errorf("bytes=%d: bandwidth %v not increasing (prev %v)", b, bw, prev)
		}
		if bw > spec.PeakBandwidth*(1-spec.Overhead) {
			t.Errorf("bytes=%d: bandwidth %v exceeds derated peak", b, bw)
		}
		prev = bw
	}
}

func TestLinkRejectsBadSpec(t *testing.T) {
	if _, err := NewLink(device.LinkSpec{}); err == nil {
		t.Error("empty spec: want error")
	}
	if _, err := NewLink(device.LinkSpec{PeakBandwidth: 1e9, PacketBytes: 256, Overhead: 1.5}); err == nil {
		t.Error("overhead >= 1: want error")
	}
}

var benchSmoke = flag.Bool("memsim.benchsmoke", false,
	"run the exact-sweep speed smoke (a timing ratio, not a correctness test)")

// streamSecondsLoop is the per-access STREAM model that StreamSeconds
// computes run by run: one sequential float64 add per burst (or per
// transaction), with the open-row check of every access. It is the
// oracle of the differential tests and takes only valid inputs.
func streamSecondsLoop(d *DRAM, base, n int64, elemBytes int, strideElems int64) float64 {
	if n <= 0 {
		return 0
	}
	if strideElems == 0 {
		strideElems = 1
	}
	if strideElems < 0 {
		strideElems = -strideElems
	}
	cycles := 0.0
	bc := d.burstCycles()
	if strideElems == 1 {
		bytes := n * int64(elemBytes)
		bursts := (bytes + int64(d.spec.BurstBytes) - 1) / int64(d.spec.BurstBytes)
		for b := int64(0); b < bursts; b++ {
			addr := base + b*int64(d.spec.BurstBytes)
			cycles += bc + d.touch(addr)
		}
	} else {
		strideBytes := strideElems * int64(elemBytes)
		for i := int64(0); i < n; i++ {
			addr := base + i*strideBytes
			cycles += bc + float64(d.spec.TransCycles) + d.touch(addr)
		}
	}
	return cycles/d.spec.ClockHz + d.spec.SetupSeconds
}

// twin returns two DRAMs of one spec: one for StreamSeconds, one for
// the oracle.
func twin(t testing.TB, spec device.DRAMSpec) (*DRAM, *DRAM) {
	t.Helper()
	fast, err := NewDRAM(spec)
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := NewDRAM(spec)
	return fast, loop
}

// streamCall is one StreamSeconds call of a differential sequence.
type streamCall struct {
	base, n   int64
	elemBytes int
	stride    int64
}

// checkCalls runs the calls in order on a fresh twin, without Reset in
// between, and fails on the first call whose result bits or open rows
// differ from the oracle's.
func checkCalls(t testing.TB, spec device.DRAMSpec, calls []streamCall) {
	t.Helper()
	fast, loop := twin(t, spec)
	for i, c := range calls {
		got, err := fast.StreamSeconds(c.base, c.n, c.elemBytes, c.stride)
		if err != nil {
			t.Fatalf("spec %+v call %d %+v: %v", spec, i, c, err)
		}
		want := streamSecondsLoop(loop, c.base, c.n, c.elemBytes, c.stride)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("spec %+v call %d %+v: got %v (%#x), loop %v (%#x)",
				spec, i, c, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if !slices.Equal(fast.openRow, loop.openRow) {
			t.Fatalf("spec %+v call %d %+v: open rows %v, loop %v", spec, i, c, fast.openRow, loop.openRow)
		}
	}
}

// period is the bank period of a stream whose accesses are stepBytes
// apart.
func period(spec device.DRAMSpec, stepBytes int64) int64 {
	span := int64(spec.Banks) * int64(spec.RowBytes)
	return span / gcd(stepBytes%span, span)
}

// sweepSpecs are the registered targets' DRAMs plus corner shapes: one
// bank, rows that are not a power of two or shorter than a burst, and
// bursts that do not divide a row.
func sweepSpecs() []device.DRAMSpec {
	specs := []device.DRAMSpec{
		device.StratixVGSD8().DRAM,
		device.Virtex7690T().DRAM,
		device.GSD8Edu().DRAM,
	}
	v7 := device.Virtex7690T().DRAM
	for _, shape := range [][3]int{ // banks, row bytes, burst bytes
		{1, 2048, 64},
		{3, 3000, 64},
		{8, 3000, 48},
		{4, 64, 128},
		{16, 96, 40},
		{5, 1000, 7},
	} {
		s := v7
		s.Banks, s.RowBytes, s.BurstBytes = shape[0], shape[1], shape[2]
		specs = append(specs, s)
	}
	return specs
}

func TestStreamSecondsMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range sweepSpecs() {
		for _, eb := range []int{1, 3, 4, 8, 16} {
			for _, stride := range []int64{0, 1, -1, 2, -3, 7, 33, 512, -1000, 1024, 4099} {
				step := int64(spec.BurstBytes)
				if stride > 1 || stride < -1 {
					step = max(stride, -stride) * int64(eb)
				}
				p := period(spec, step)
				for _, n := range []int64{0, 1, 2, p - 1, p, p + 1, 3*p + 5, 20000} {
					// Calls of one sequence share the DRAM, as the strided
					// column walk's passes do.
					calls := make([]streamCall, 1+rng.Intn(8))
					for i := range calls {
						calls[i] = streamCall{base: rng.Int63n(1 << 16), n: n, elemBytes: eb, stride: stride}
						if i%2 == 1 {
							calls[i].base = calls[i-1].base + int64(eb)
						}
					}
					checkCalls(t, spec, calls)
				}
			}
		}
	}
}

// TestStreamSecondsMatchesLoopColumnWalk replays membw's strided column
// walk, whose passes carry open rows from one to the next.
func TestStreamSecondsMatchesLoopColumnWalk(t *testing.T) {
	for _, spec := range sweepSpecs()[:3] {
		for _, dim := range []int64{100, 500, 1000, 2000} {
			calls := []streamCall{{0, dim * dim, 4, 1}}
			for col := int64(0); col < dim; col += 7 {
				calls = append(calls, streamCall{col * 4, dim, 4, dim})
			}
			checkCalls(t, spec, calls)
		}
	}
}

// randomSpec returns a DRAM spec drawn from the parameter ranges the
// differential tests cover: 1-16 banks, rows of 1-4096 bytes, bursts
// of 4-128 bytes, and unrelated clock and peak bandwidth.
func randomSpec(banks, rowBytes, burst uint16, clockMHz, bwMBps uint32, missCycles, transCycles uint16) device.DRAMSpec {
	return device.DRAMSpec{
		Banks:         int(banks%16) + 1,
		RowBytes:      int(rowBytes%4096) + 1,
		BurstBytes:    int(burst%125) + 4,
		ClockHz:       float64(clockMHz%3000+1) * 1.0e6,
		PeakBandwidth: float64(bwMBps%100000+1) * 1.3e6,
		RowMissCycles: int(missCycles % 64),
		TransCycles:   int(transCycles % 512),
		SetupSeconds:  1e-6,
	}
}

func TestStreamSecondsMatchesLoopRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u16 := func() uint16 { return uint16(rng.Uint32()) }
	for i := 0; i < 300; i++ {
		spec := randomSpec(u16(), u16(), u16(), rng.Uint32(), rng.Uint32(), u16(), u16())
		if i%3 == 0 {
			spec.RowBytes = []int{64, 3000}[i%2]
		}
		calls := make([]streamCall, 1+rng.Intn(6))
		for j := range calls {
			calls[j] = streamCall{
				base:      rng.Int63n(1 << 20),
				n:         rng.Int63n(5000),
				elemBytes: 1 + rng.Intn(16),
				stride:    rng.Int63n(4001) - 2000,
			}
		}
		checkCalls(t, spec, calls)
	}
}

func FuzzStreamSeconds(f *testing.F) {
	f.Add(uint16(8), uint16(2048), uint16(64), uint32(800), uint32(38400), uint16(22), uint16(260),
		int64(0), int64(1000), uint8(4), int64(1000), uint8(4))
	f.Add(uint16(1), uint16(3000), uint16(48), uint32(333), uint32(1234), uint16(7), uint16(0),
		int64(17), int64(4096), uint8(3), int64(-1), uint8(1))
	f.Add(uint16(5), uint16(64), uint16(124), uint32(1234), uint32(99), uint16(0), uint16(300),
		int64(64), int64(70), uint8(16), int64(-9), uint8(2))
	f.Fuzz(func(t *testing.T, banks, rowBytes, burst uint16, clockMHz, bwMBps uint32, missCycles, transCycles uint16,
		base, n int64, eb uint8, stride int64, calls uint8) {
		spec := randomSpec(banks, rowBytes, burst, clockMHz, bwMBps, missCycles, transCycles)
		call := streamCall{
			base:      int64(uint64(base) % (1 << 30)),
			n:         int64(uint64(n) % 50000),
			elemBytes: int(eb%16) + 1,
			stride:    stride % 100000,
		}
		seq := make([]streamCall, calls%6+1)
		for i := range seq {
			seq[i] = call
			seq[i].base += int64(i * call.elemBytes)
		}
		checkCalls(t, spec, seq)
	})
}

// sumLoop is the plain sequential sum that sumRun shortcuts.
func sumLoop(x, a float64, count int64) float64 {
	for ; count > 0; count-- {
		x += a
	}
	return x
}

func TestSumRunMatchesLoop(t *testing.T) {
	type run struct {
		x, a  float64
		count int64
	}
	runs := []run{
		{0, 4.0 / 3, 0},      // empty run
		{0, 4.0 / 3, 1},      // one step from zero
		{0, 4.0 / 3, 100000}, // many binade crossings
		{0, 60.23529411764706, 77777},
		{1e-3, 1, 5000},         // x < a for the first steps
		{1, 0.75, 4096},         // a crosses x's binade at once
		{1 << 53, 1, 1000},      // a is half an ulp: ties from an even x
		{1<<53 + 2, 3, 1000},    // a is 1.5 ulps: ties, odd multiple
		{1<<53 + 2, 1, 1000},    // tie from an odd x/u (x/u = 2^52+1)
		{1 << 54, 1, 1000},      // a below half an ulp: x never moves
		{1<<52 - 5, 1.5, 1000},  // crosses into a binade where 1.5 ties
		{1<<53 - 64, 0.5, 1000}, // ties at the binade top
		{math.MaxFloat64 / 2, math.MaxFloat64 / 1e6, 3000000}, // overflows to +Inf
		{5e-324, 5e-324, 10000},                               // subnormals
		{7, 0, 100000},                                        // a zero addend
		{12.5, math.Inf(1), 3},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		runs = append(runs, run{
			x:     math.Ldexp(rng.Float64(), rng.Intn(80)-10),
			a:     math.Ldexp(rng.Float64(), rng.Intn(40)-20),
			count: rng.Int63n(20000),
		})
	}
	for _, r := range runs {
		got, want := sumRun(r.x, r.a, r.count), sumLoop(r.x, r.a, r.count)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sumRun(%v, %v, %d) = %v, loop %v", r.x, r.a, r.count, got, want)
		}
	}
	// Runs too long for the oracle: x never moves, or x + a stays exact.
	if got := sumRun(1<<60, 1, 1<<50); got != 1<<60 {
		t.Errorf("2^50 additions below half an ulp moved x to %v", got)
	}
	if got := sumRun(0, 1, 1<<50); got != 1<<50 {
		t.Errorf("2^50 exact additions of 1 sum to %v", got)
	}
}

func TestStreamSecondsRejectsBadAddresses(t *testing.T) {
	cases := []struct {
		name      string
		base, n   int64
		elemBytes int
		stride    int64
	}{
		{"negative base", -4096, 10, 4, 1},
		{"negative base strided", -1, 10, 4, 1000},
		{"elements overflow", 0, math.MaxInt64/4 + 1, 4, 1},
		{"contiguous end overflows", math.MaxInt64 - 100, 100, 4, 1},
		{"stride bytes overflow", 0, 2, 8, math.MaxInt64 / 4},
		{"last address overflows", 0, 1 << 40, 4, 1 << 22},
		{"last address past base overflows", math.MaxInt64 - 4096, 2, 4, 1024},
		{"min int64 stride", 0, 2, 1, math.MinInt64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := testDRAM(t)
			if _, err := d.StreamSeconds(0, 5000, 4, 1); err != nil {
				t.Fatal(err)
			}
			before := slices.Clone(d.openRow)
			if s, err := d.StreamSeconds(c.base, c.n, c.elemBytes, c.stride); err == nil {
				t.Fatalf("want error, got %v", s)
			}
			if !slices.Equal(d.openRow, before) {
				t.Errorf("open rows changed by a rejected stream: %v, before %v", d.openRow, before)
			}
		})
	}
	// The largest streams that do fit are accepted, and cheap.
	d := testDRAM(t)
	if _, err := d.StreamSeconds(math.MaxInt64-4095, 1024, 4, 1); err != nil {
		t.Errorf("stream ending at the top of the address space: %v", err)
	}
	if _, err := d.StreamSeconds(0, 1<<40, 4, 1<<20); err != nil {
		t.Errorf("2^40 strided elements: %v", err)
	}
	if _, err := d.StreamSeconds(0, 1, 1, math.MinInt64); err != nil {
		t.Errorf("one element never steps, so any stride is fine: %v", err)
	}
}

// defaultSweep is membw's default STREAM sweep (RunStreamBenchmark with
// DefaultDims) expressed against a StreamSeconds implementation.
func defaultSweep(d *DRAM, stream func(d *DRAM, base, n int64, stride int64) float64) float64 {
	total := 0.0
	for _, dim := range []int64{100, 250, 500, 1000, 2000, 3000, 4000, 5000, 6000} {
		d.Reset()
		total += stream(d, 0, dim*dim, 1)
		d.Reset()
		for col := int64(0); col < dim; col++ {
			total += stream(d, col*4, dim, dim)
		}
	}
	return total
}

func fastStream(d *DRAM, base, n, stride int64) float64 {
	s, err := d.StreamSeconds(base, n, 4, stride)
	if err != nil {
		panic(err)
	}
	return s
}

func loopStream(d *DRAM, base, n, stride int64) float64 {
	return streamSecondsLoop(d, base, n, 4, stride)
}

// TestStreamSweepSpeedSmoke checks that the default STREAM sweep on
// stratix-v-gsd8 runs at least 5x faster than the per-access oracle.
// It compares two timings in one process rather than one against a
// wall-clock bound, so it holds on a small machine too.
func TestStreamSweepSpeedSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -memsim.benchsmoke")
	}
	d, err := NewDRAM(device.StratixVGSD8().DRAM)
	if err != nil {
		t.Fatal(err)
	}
	if fast, loop := defaultSweep(d, fastStream), defaultSweep(d, loopStream); fast != loop {
		t.Fatalf("sweep totals differ: fast %v, loop %v", fast, loop)
	}
	fast := testing.Benchmark(benchSweep(fastStream)).NsPerOp()
	loop := testing.Benchmark(benchSweep(loopStream)).NsPerOp()
	ratio := float64(loop) / float64(max(fast, 1))
	t.Logf("default sweep: loop %d ns, fast %d ns, %.1fx", loop, fast, ratio)
	if ratio < 5 {
		t.Errorf("exact sweep only %.1fx faster than the loop oracle, want >= 5x", ratio)
	}
}

// benchSweep times the default sweep on stratix-v-gsd8 through one
// StreamSeconds implementation.
func benchSweep(stream func(*DRAM, int64, int64, int64) float64) func(*testing.B) {
	return func(b *testing.B) {
		d, err := NewDRAM(device.StratixVGSD8().DRAM)
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			defaultSweep(d, stream)
		}
	}
}

func BenchmarkStreamSweep(b *testing.B) {
	b.Run("fast", benchSweep(fastStream))
	b.Run("loop", benchSweep(loopStream))
}
