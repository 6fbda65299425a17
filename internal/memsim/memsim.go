// Package memsim is the memory substrate of the reproduction: a banked
// DRAM model with per-bank row buffers and burst-quantised transfers,
// plus a PCIe link model. It stands in for the physical boards of the
// paper's bandwidth experiments (§V-C): the Alpha-Data ADM-PCIE-7V3's
// DDR3 channel for the Fig 10 measurements, and the Maxeler Maia's
// DRAM/PCIe for the case study.
//
// The two empirical phenomena of Fig 10 — the up-to-two-orders-of-
// magnitude contiguity penalty and the size-dependent ramp that plateaus
// around 1000×1000 elements — emerge from the model's mechanisms rather
// than being fitted: non-contiguous accesses pay a controller round-trip
// and defeat burst amortisation, and the fixed kernel-dispatch overhead
// is amortised only as stream size grows.
package memsim

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// DRAM simulates one device-DRAM channel.
type DRAM struct {
	spec device.DRAMSpec
	// openRow[b] is the row id currently latched in bank b's row buffer,
	// or -1 when the bank is precharged.
	openRow []int64
	// mark and epoch let a period scan tell first visits to a bank
	// apart from later ones without clearing a slice per scan: bank b
	// has been seen in the current scan when mark[b] == epoch.
	mark  []uint64
	epoch uint64
}

// NewDRAM returns a DRAM channel with all banks precharged.
func NewDRAM(spec device.DRAMSpec) (*DRAM, error) {
	if spec.Banks <= 0 || spec.RowBytes <= 0 || spec.BurstBytes <= 0 {
		return nil, fmt.Errorf("memsim: DRAM spec needs positive banks/row/burst, got %+v", spec)
	}
	if !(spec.ClockHz > 0) || !(spec.PeakBandwidth > 0) || math.IsInf(spec.ClockHz, 0) || math.IsInf(spec.PeakBandwidth, 0) {
		return nil, fmt.Errorf("memsim: DRAM spec needs positive clock and bandwidth")
	}
	if spec.RowMissCycles < 0 || spec.TransCycles < 0 {
		return nil, fmt.Errorf("memsim: DRAM spec needs non-negative row-miss and transaction cycles, got %d and %d",
			spec.RowMissCycles, spec.TransCycles)
	}
	if int64(spec.Banks) > math.MaxInt64/int64(spec.RowBytes) {
		return nil, fmt.Errorf("memsim: DRAM spec of %d banks of %d-byte rows overflows the address space",
			spec.Banks, spec.RowBytes)
	}
	d := &DRAM{spec: spec, openRow: make([]int64, spec.Banks), mark: make([]uint64, spec.Banks)}
	d.Reset()
	return d, nil
}

// Reset precharges all banks.
func (d *DRAM) Reset() {
	for i := range d.openRow {
		d.openRow[i] = -1
	}
}

// burstCycles is the interface-cycle cost of moving one full burst at
// peak bandwidth.
func (d *DRAM) burstCycles() float64 {
	return float64(d.spec.BurstBytes) * d.spec.ClockHz / d.spec.PeakBandwidth
}

// touch accounts a row activation if the address falls outside the open
// row of its bank, returning the penalty cycles.
func (d *DRAM) touch(addr int64) float64 {
	row := addr / int64(d.spec.RowBytes)
	bank := int(row % int64(d.spec.Banks))
	if d.openRow[bank] == row {
		return 0
	}
	d.openRow[bank] = row
	return float64(d.spec.RowMissCycles)
}

// StreamSeconds simulates streaming n elements of elemBytes each,
// starting at byte address base, with a fixed stride (in elements), and
// returns the channel-occupancy time in seconds. Contiguous streams
// (stride 1) move whole bursts; non-unit strides are issued as
// individual controller transactions, each paying the round-trip
// TransCycles and wasting the rest of its burst — the mechanism behind
// the two-orders-of-magnitude gap of Fig 10.
//
// The cost is the sequential float64 sum of one addend per burst (or
// per transaction): the burst cost (plus TransCycles for a
// transaction), plus RowMissCycles when the access opens a row. It is computed run by run rather than access by access
// (see DESIGN.md, "Calibration: the exact run-length STREAM sweep"), in
// O(rows + bank period) time, and is bit-identical to the per-access
// sum, open-row state included.
func (d *DRAM) StreamSeconds(base, n int64, elemBytes int, strideElems int64) (float64, error) {
	if base < 0 {
		return 0, fmt.Errorf("memsim: negative stream base address %d", base)
	}
	if n <= 0 {
		return 0, nil
	}
	if elemBytes <= 0 {
		return 0, fmt.Errorf("memsim: element size must be positive, got %d", elemBytes)
	}
	if strideElems == 0 {
		strideElems = 1
	}
	if strideElems < 0 {
		strideElems = -strideElems // mirror-order streaming costs the same
	}
	eb := int64(elemBytes)
	bytes, ok := mulNonNeg(n, eb)
	// The last byte, base + (n-1)·stride·elemBytes + elemBytes-1, must be
	// addressable. A single element never steps, so its stride is never
	// scaled and may be anything.
	strideBytes, span := eb, int64(0)
	if ok && n > 1 {
		if strideBytes, ok = mulNonNeg(strideElems, eb); ok { // fails for |math.MinInt64|
			span, ok = mulNonNeg(n-1, strideBytes)
		}
	}
	if !ok || span > math.MaxInt64-base-(eb-1) {
		return 0, fmt.Errorf("memsim: stream of %d %d-byte elements at stride %d from address %d overflows the address space",
			n, elemBytes, strideElems, base)
	}

	bc := d.burstCycles()
	lead, step, count := bc, strideBytes, n
	if strideElems == 1 {
		// Whole-burst streaming: the controller coalesces; row misses
		// occur at row crossings only.
		bb := int64(d.spec.BurstBytes)
		step, count = bb, bytes/bb
		if bytes%bb != 0 {
			count++
		}
	} else {
		lead = bc + float64(d.spec.TransCycles)
	}
	// A row hit adds lead + 0, which is lead itself for every lead >= 0.
	r := runSum{add: [2]float64{lead, lead + float64(d.spec.RowMissCycles)}}
	if step < int64(d.spec.RowBytes) {
		d.sweepRows(&r, base, step, count)
	} else {
		d.sweepPeriod(&r, base, step, count)
	}
	return r.total()/d.spec.ClockHz + d.spec.SetupSeconds, nil
}

// sweepRows accounts count accesses step bytes apart from base, for a
// step shorter than a row, one row at a time: only the first access of
// a row can open it, and every later access in the row hits.
func (d *DRAM) sweepRows(r *runSum, base, step, count int64) {
	rb, banks := int64(d.spec.RowBytes), int64(d.spec.Banks)
	row, off := base/rb, base%rb
	bank := row % banks
	for count > 0 {
		k := min((rb-off+step-1)/step, count) // accesses left in this row
		r.push(d.openRow[bank] != row, 1)
		d.openRow[bank] = row
		r.push(false, k-1)
		count -= k
		off += k*step - rb // the next row starts off bytes in
		row++
		if bank++; bank == banks {
			bank = 0
		}
	}
}

// sweepPeriod accounts count accesses step bytes apart from base, for a
// step of at least a row. Rows then strictly increase, so an access can
// hit only on the first visit to its bank in this call, and every later
// access misses. The bank sequence repeats every
// P = Banks·RowBytes / gcd(step, Banks·RowBytes) accesses and visits
// min(Banks, P) banks, so a forward scan finds every first visit and a
// backward scan from the last access finds every bank's final row, each
// within P accesses.
func (d *DRAM) sweepPeriod(r *runSum, base, step, count int64) {
	rb, banks := int64(d.spec.RowBytes), int64(d.spec.Banks)
	span := banks * rb
	visited := min(banks, span/gcd(step%span, span))
	sq, sr := step/rb, step%rb
	bq := sq % banks

	row, off := base/rb, base%rb
	bank := row % banks
	d.epoch++
	i, seen := int64(0), int64(0)
	for ; i < count && seen < visited; i++ {
		if d.mark[bank] != d.epoch {
			d.mark[bank] = d.epoch
			seen++
			r.push(d.openRow[bank] != row, 1)
		} else {
			r.push(true, 1)
		}
		d.openRow[bank] = row
		off, row, bank = off+sr, row+sq, bank+bq
		if off >= rb {
			off, row, bank = off-rb, row+1, bank+1
		}
		if bank >= banks {
			bank -= banks
		}
	}
	if i == count {
		return
	}
	r.push(true, count-i)

	last := base + (count-1)*step
	row, off = last/rb, last%rb
	bank = row % banks
	d.epoch++
	seen = 0
	for j := count - 1; j >= i && seen < visited; j-- {
		if d.mark[bank] != d.epoch {
			d.mark[bank] = d.epoch
			seen++
			d.openRow[bank] = row
		}
		off, row, bank = off-sr, row-sq, bank-bq
		if off < 0 {
			off, row, bank = off+rb, row-1, bank-1
		}
		if bank < 0 {
			bank += banks
		}
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mulNonNeg returns a·b for non-negative a and b, and false when the
// product overflows int64 or an operand is negative.
func mulNonNeg(a, b int64) (int64, bool) {
	if a < 0 || b < 0 || (a != 0 && b > math.MaxInt64/a) {
		return 0, false
	}
	return a * b, true
}

// runSum accumulates a stream's addend sequence as runs of row hits
// (add[0]) and row misses (add[1]), summing each finished run into x in
// order, so the total is the sequential sum of the whole sequence.
type runSum struct {
	x    float64
	add  [2]float64
	miss bool
	n    int64
}

// push appends n accesses that all hit or all miss.
func (r *runSum) push(miss bool, n int64) {
	if miss == r.miss {
		r.n += n
		return
	}
	r.flush()
	r.miss, r.n = miss, n
}

func (r *runSum) flush() {
	a := r.add[0]
	if r.miss {
		a = r.add[1]
	}
	r.x = sumRun(r.x, a, r.n)
	r.n = 0
}

// total returns the sum of every access pushed so far.
func (r *runSum) total() float64 {
	r.flush()
	return r.x
}

// shortRun is the run length below which sumRun just adds: the binade
// bookkeeping of a uniform jump costs about as much as this many adds.
const shortRun = 8

// sumRun returns x after count sequential float64 steps x += a, bit for
// bit, in O(binades) steps instead of O(count). It needs x >= 0 and
// a >= 0 (either may be +Inf); every caller's addends are sums of
// non-negative cycle counts.
//
// Inside one binade all floats are multiples of its ulp u, so while
// x + a stays below the binade's top, x += a rounds to x + d, where d is
// a rounded to a multiple of u, the same d at every step: a whole
// stretch of steps is one exact x += s·d. uniformSteps says how long
// that stretch is; the step after it leaves the binade and is taken
// for real.
func sumRun(x, a float64, count int64) float64 {
	if count <= 0 || a == 0 {
		return x
	}
	if math.IsInf(a, 1) {
		return x + a
	}
	for count >= shortRun {
		if math.IsInf(x, 1) {
			return x // +Inf plus a finite addend stays +Inf
		}
		s, d := uniformSteps(x, a)
		if s > 0 {
			if s >= count {
				return x + float64(count)*d
			}
			x += float64(s) * d
			count -= s
		}
		x += a
		count--
	}
	for ; count > 0; count-- {
		x += a
	}
	return x
}

// uniformSteps returns how many sequential steps x += a, from a finite
// x >= 0 and a finite a > 0, each add exactly d, and 0 when the next
// step has to be taken for real: x is 0, x + a may leave x's binade, or
// a tie rounds differently from the parity of x.
func uniformSteps(x, a float64) (int64, float64) {
	if x == 0 {
		return 0, 0
	}
	// x lies in the binade of biased exponent e, whose floats are the
	// multiples of u up to top, the largest float of that exponent.
	e := math.Float64bits(x) >> 52
	top := math.Float64frombits((e+1)<<52 - 1)
	var u float64
	switch {
	case e <= 1:
		u = math.Float64frombits(1) // subnormal spacing, 2^-1074
	case e <= 52:
		u = math.Float64frombits(1 << (e - 1))
	default:
		u = math.Float64frombits((e - 52) << 52)
	}
	if a > top {
		return 0, 0
	}
	q := a / u // exact: a scaled by a power of two, below 2^53
	m := math.Floor(q)
	switch f := q - m; {
	case f > 0.5:
		m++
	case f == 0.5:
		// A tie rounds to the even multiple of u. From an even x/u that
		// is x + m·u with m even, so every step adds the same; from an
		// odd x/u one real step makes it even.
		if int64(x/u)&1 != 0 {
			return 0, 0
		}
		if int64(m)&1 != 0 {
			m++
		}
	}
	if m == 0 {
		return math.MaxInt64, 0 // a is below half an ulp: x never moves
	}
	// Step j starts at x + (j-1)·d and is uniform while it ends at or
	// below top, since then x + a <= top + u/2 < top + u.
	return int64((top-x)/u) / int64(m), m * u
}

// RandomSeconds simulates n single-element accesses at pseudo-random
// addresses within a window of windowBytes. The paper observes "little
// difference in sustained bandwidth between fixed-stride and true
// random access" (§V-C); the model reproduces that because both defeat
// burst coalescing and pay the controller round trip — the row-buffer
// hit rate differs only marginally once the stride exceeds the row size.
func (d *DRAM) RandomSeconds(seed uint64, n int64, elemBytes int, windowBytes int64) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	if elemBytes <= 0 {
		return 0, fmt.Errorf("memsim: element size must be positive, got %d", elemBytes)
	}
	if windowBytes <= int64(elemBytes) {
		return 0, fmt.Errorf("memsim: random window must exceed one element")
	}
	cycles := 0.0
	bc := d.burstCycles()
	state := seed*6364136223846793005 + 1442695040888963407
	slots := windowBytes / int64(elemBytes)
	for i := int64(0); i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		addr := int64((state>>17)%uint64(slots)) * int64(elemBytes)
		cycles += bc + float64(d.spec.TransCycles) + d.touch(addr)
	}
	return cycles/d.spec.ClockHz + d.spec.SetupSeconds, nil
}

// Link simulates the host-device link (PCIe on both boards).
type Link struct {
	spec device.LinkSpec
}

// NewLink returns a link model.
func NewLink(spec device.LinkSpec) (*Link, error) {
	if spec.PeakBandwidth <= 0 || spec.PacketBytes <= 0 {
		return nil, fmt.Errorf("memsim: link spec needs positive bandwidth and packet size")
	}
	if spec.Overhead < 0 || spec.Overhead >= 1 {
		return nil, fmt.Errorf("memsim: link overhead fraction %v out of [0,1)", spec.Overhead)
	}
	return &Link{spec: spec}, nil
}

// TransferSeconds returns the time to move the given bytes across the
// link in one DMA: round-trip latency plus packetised payload at the
// protocol-efficiency-derated rate.
func (l *Link) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	payloadRate := l.spec.PeakBandwidth * (1 - l.spec.Overhead)
	packets := (bytes + int64(l.spec.PacketBytes) - 1) / int64(l.spec.PacketBytes)
	// Each packet re-pays header serialisation, folded into Overhead;
	// latency is paid once per DMA, plus a per-packet pipeline bubble.
	return l.spec.LatencySec + float64(bytes)/payloadRate + float64(packets)*2e-9
}

// SustainedBandwidth returns the effective link bytes/second for a
// transfer of the given size.
func (l *Link) SustainedBandwidth(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / l.TransferSeconds(bytes)
}
