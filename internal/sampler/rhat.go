package sampler

// rhat.go: the cross-chain convergence diagnostics on the batched engines.
// B independent lockstep chains are exactly the input the potential scale
// reduction factor R̂ wants: for each vertex, the between-chain variance of
// the per-chain means is compared against the mean within-chain variance;
// R̂ ≈ 1 once every chain explores the same distribution, and values well
// above 1 flag unconverged sweeps. Symbols are treated as numeric scores
// (the standard practice for categorical chains — a heuristic but
// effective stall detector; for q = 2 models it is exactly the
// indicator-mean diagnostic). Per-vertex values are exposed, and the worst
// vertex is the headline number cmd/lsample and the internal/run driver
// report.
//
// Two accumulation structures back the diagnostics:
//
//   - running Welford moments per (vertex, chain), numerically stable over
//     any number of observations, behind the classic whole-chain statistic
//     (Worst);
//   - a bounded, evenly thinned buffer of lattice snapshots, behind the
//     split statistic (WorstSplit — each retained chain series is
//     split into halves, so a chain that wandered between two modes shows
//     up even when the whole-chain means agree) and the per-vertex
//     effective sample size (MinESS — Geyer initial-monotone
//     autocorrelation sums on the retained series).
//
// The buffer is time-major: retained snapshot i is one copy of the
// lattice's raw cell block, laid out like the lattice (cell v*B+c), one
// byte per cell on compact lattices and an int32 per cell on wide ones,
// in a slice of its own. Observe therefore costs one pass over the
// lattice. Each retained observation allocates its snapshot, up to a fixed
// number of snapshots; when the buffer fills, every other snapshot is
// dropped (snapshot 2i+1 moves to i, which moves a slice header, not the
// cells) and the retention stride doubles, so the retained series stays
// evenly spaced across the whole history and memory stays bounded no
// matter how long the run. The dropped snapshots' slices take the
// observations that follow, so nothing is allocated after the buffer
// first fills.
//
// Reading the buffer is one kernel per vertex (vertexStats). Every
// statistic it reports is a fixed float64 formula of exact int64 sums of
// the retained cells (symbols, or Unset = −1): per chain and half Σx, per
// part Σx², and per lag l the row products Σ_t ⟨row_t, row_{t+l}⟩ over the
// chains plus boundary sums that centre them (lagSum). Integer sums are
// exact in any order, so the kernel reads each vertex's retained rows in
// time order from the snapshots, and three row products compute the same
// integers. A vertex whose retained cells are all 0 or 1 — every q = 2
// model — takes the 0/1 kernel: it packs each row into one bit per chain,
// eight cells per multiply, and a lag costs one AND and one POPCNT per
// eight packed bytes. A vertex whose cells are all symbols below 128
// takes the lane kernel: it packs each row into 16-bit lanes, four cells
// to a word, and a lag costs one multiply per four cells, a word times the
// lane-reversed word of the row l later. Every other vertex (Unset cells,
// symbols from 128, wide lattices) takes the general kernel: it copies its
// rows, decoded, into a time-major int32 block, and a lag is one flat
// integer dot product of the block against itself shifted. The tests run
// per vertex per pass, over every retained cell. newRhat refuses a chain
// count and alphabet whose sums could leave int64. A convergence
// check splits in two. The whole-chain R̂ (Worst) reads only
// the running moments, a scan of n·B cells. The split-R̂/ESS pass runs the
// kernel over every vertex, and there are two ways to run it. Check runs
// it on the caller: its workers — goroutines on every other core, each
// with its own scratch, and the caller — claim chunks of its scan order
// until none are left, and their results fold so that the lowest vertex
// wins every tie, whoever scanned it. Queue defers it instead, to the
// accumulator's Backlog: one FIFO queue of passes per drive, shared by
// every accumulator made on it. Up to the backlog's core count of
// background workers take whole queued passes, oldest first, while the
// caller goes on advancing its engine; Drain takes on the caller whatever
// no worker has taken and waits for the workers to finish theirs and
// exit. Every worker, the caller and Check's goroutines each keep one
// kernel scratch for every accumulator and pass of the backlog, sized
// once at the buffer capacity, so the stages and passes of a drive share
// their scratch instead of each growing its own.
//
// A check reports only the smallest ESS, so the pass searches for it by
// branch and bound. It scans the vertex with the worst whole-chain R̂
// first, the likeliest to mix worst, then the rest in index order. The
// Geyer loop dominates the kernel, and each of its lag pairs bounds what
// the pairs still to come can add, so a worker stops a vertex's loop as
// soon as the vertex's ESS is certain to exceed (by a margin far above
// rounding) the smallest ESS that worker has already found in the pass. A
// stopped vertex can then neither win nor tie, and the check still reports
// the full scan's fields, bit for bit and vertex for vertex (vertexStats
// says why).
//
// A queued pass reads a frozen view: its own copy of the buffer's slice
// header and of the retained length, stride and count (history), never
// the moments or the live fields. That view stays valid while Observe goes
// on: an observation writes only a snapshot past the frozen length, a
// fresh one or one that thinning dropped; only thinning moves retained
// snapshots, and Observe finishes the accumulator's passes still queued or
// running before it thins. The diagnostics draw no random numbers, so a
// pass's result is the same whether it ran inline or in the background, on
// one worker or on several: it does not depend on GOMAXPROCS, on the
// engines' worker count, or on when it ran.
//
// rhatref_test.go keeps the series-major layout as the test oracle: it
// forms the same integer sums naively, series by series, and finishes
// them with the same formulas, so every statistic matches it bit for bit.

import (
	"encoding/binary"
	"fmt"
	"math"
	stdbits "math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/psample"
)

// DefaultRetain is the observation-buffer capacity in snapshots: enough
// resolution for the split and autocorrelation statistics. A snapshot
// costs one byte per cell on compact lattices, so the buffer holds at most
// DefaultRetain·n·B bytes and reaches that only after DefaultRetain
// observations: a drive that stops after T ≤ DefaultRetain sweeps retains
// T·n·B bytes and allocates no more for its snapshots, one slice each.
const DefaultRetain = 256

// maxRetain caps the observation-buffer capacity: the 0/1 kernel counts a
// half series' ones per chain in one byte, and the lane kernel sums its
// cells below 128 in 16 bits.
const maxRetain = 2 * 255

// Rhat accumulates per-(vertex, chain) observation statistics of a
// multi-chain engine's state and reports the Gelman–Rubin statistic
// (classic and split forms) and the effective sample size per vertex. It
// works with any MultiChain — the three batched engines of
// internal/psample alike. Memory is the 16·n·B
// bytes of running moments plus the snapshot buffer, which holds one byte
// per cell per retained observation (four on wide lattices); the kernel
// scratch belongs to the accumulator's backlog. An Rhat is not safe for
// concurrent use; the passes of its backlog are its only other readers.
type Rhat struct {
	m MultiChain
	// history is everything the per-vertex kernel reads.
	history
	// mean and m2 are chain-major like the lattice: entry v*B+c carries
	// chain c's running mean / centered second moment at vertex v.
	mean []float64
	m2   []float64
	skip int
	// q queues the accumulator's deferred passes and holds the scratch of
	// every pass and of splitAt and essAt.
	q *Backlog
	// worstV is the vertex of the last whole-chain scan (worst) and
	// worstAt the observation count it ran at: a pass scans that vertex
	// first.
	worstV, worstAt int
}

// history is the part of the accumulator the per-vertex kernel reads: the
// shape, the thinned snapshot buffer and the observation count. Snapshot i
// is the cells-long slice snaps8[i] (compact lattices) or snapsW[i] (wide
// lattices; the other stays nil) for i < rlen; the slices past rlen are
// snapshots that thinning dropped, kept for the next observations.
// Snapshots are evenly spaced every `stride` observations across the
// history, most recent last. A copy is a frozen view: Observe changes the
// accumulator's copy, never the retained cells a copy covers, except when
// it thins (see Observe).
type history struct {
	// n and b are the vertex and chain counts, read once; cells = n·b is
	// one snapshot's length.
	n, b, cells int
	compact     bool
	retain      int
	snaps8      [][]uint8
	snapsW      [][]int32
	rlen        int
	stride      int
	count       int
}

// NewRhat returns an empty accumulator for the multi-chain engine with the
// default observation-buffer capacity, on a backlog of its own with no
// background workers: its checks run with Check. The diagnostics need at
// least two chains.
func NewRhat(m MultiChain) (*Rhat, error) { return newRhat(m, DefaultRetain, NewBacklog(0)) }

// NewRhat returns an empty accumulator for the multi-chain engine with the
// default observation-buffer capacity, whose Queue defers passes to q and
// whose passes share q's scratch. The diagnostics need at least two
// chains.
func (q *Backlog) NewRhat(m MultiChain) (*Rhat, error) { return newRhat(m, DefaultRetain, q) }

// newRhat returns an empty accumulator on q retaining at most `retain`
// thinned snapshots. retain must be an even number ≥ 8 (thinning halves
// the buffer in place) and at most maxRetain. It refuses a chain count and
// alphabet whose kernel sums could leave int64.
func newRhat(m MultiChain, retain int, q *Backlog) (*Rhat, error) {
	B := m.Chains()
	if B < 2 {
		return nil, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 chains, engine has %d", B)
	}
	if retain < 8 || retain%2 != 0 {
		return nil, fmt.Errorf("sampler: observation buffer capacity must be an even number ≥ 8, got %d", retain)
	}
	if retain > maxRetain {
		return nil, fmt.Errorf("sampler: observation buffer capacity %d exceeds %d", retain, maxRetain)
	}
	lat := m.Lattice()
	// Every kernel sum is below 4·B·L³·X² in magnitude (lagSum's terms), X
	// the largest |cell|: a symbol below q, or Unset = −1.
	x := float64(max(lat.Q()-1, 1))
	if 4*float64(B)*math.Pow(float64(retain), 3)*x*x >= 1<<62 {
		return nil, fmt.Errorf("sampler: %d chains over %d symbols overflow the diagnostics' integer sums", B, lat.Q())
	}
	n := lat.N()
	r := &Rhat{
		m: m,
		history: history{
			n:       n,
			b:       B,
			cells:   n * B,
			compact: lat.Compact(),
			retain:  retain,
			stride:  1,
		},
		mean: make([]float64, n*B),
		m2:   make([]float64, n*B),
		q:    q,
	}
	// The snapshot headers never move, so a frozen view's header stays
	// valid while Observe appends.
	if r.compact {
		r.snaps8 = make([][]uint8, 0, retain)
	} else {
		r.snapsW = make([][]int32, 0, retain)
	}
	return r, nil
}

// cell8 decodes a compact cell: symbols are themselves and the 0xFF
// sentinel is dist.Unset, exactly as state.Lattice.Get reads them.
var cell8 = func() (t [256]float64) {
	for x := range t {
		t[x] = float64(x)
	}
	t[0xFF] = dist.Unset
	return t
}()

// Observe folds the engine's current state into the running moments and,
// on retention strides, appends it to the snapshot buffer, in a snapshot
// that thinning dropped or, before the first thinning, a new one. Call it
// between Run chunks (e.g. once per sweep-equivalent). When the buffer
// fills, it finishes the accumulator's queued passes before thinning it.
func (r *Rhat) Observe() {
	r.count++
	cnt := float64(r.count)
	lat := r.m.Lattice()
	keep := r.skip == 0
	mean, m2 := r.mean[:r.cells], r.m2[:r.cells]
	if r.compact {
		raw := lat.Raw8()[:r.cells]
		for i, x := range raw {
			xf := cell8[x]
			d := xf - mean[i]
			mean[i] += d / cnt
			m2[i] += d * (xf - mean[i])
		}
		if keep {
			r.snaps8 = next(r.snaps8, r.rlen, r.cells)
			copy(r.snaps8[r.rlen], raw)
		}
	} else {
		raw := lat.RawWide()[:r.cells]
		for i, x := range raw {
			xf := float64(x)
			d := xf - mean[i]
			mean[i] += d / cnt
			m2[i] += d * (xf - mean[i])
		}
		if keep {
			r.snapsW = next(r.snapsW, r.rlen, r.cells)
			snap := r.snapsW[r.rlen]
			for i, x := range raw {
				snap[i] = int32(x)
			}
		}
	}
	if !keep {
		r.skip--
		return
	}
	r.rlen++
	if r.rlen == r.retain {
		// Thin: keep every other retained snapshot (the most recent one
		// stays retained), double the stride. The retained set remains the
		// multiples of the stride, so the series stays evenly spaced.
		// Thinning moves retained snapshots in place, under the views of
		// the passes still queued or running: finish them.
		r.q.settle(r)
		half := r.retain / 2
		if r.compact {
			thin(r.snaps8, half)
		} else {
			thin(r.snapsW, half)
		}
		r.rlen = half
		r.stride *= 2
	}
	r.skip = r.stride - 1
}

// next makes sure snaps holds a snapshot at slot rlen, the next to
// retain: one that thinning dropped, or a new one of `cells` cells, which
// only the first `retain` observations kept need. snaps was made with
// capacity retain, so appending never moves the headers.
func next[T uint8 | int32](snaps [][]T, rlen, cells int) [][]T {
	if rlen < len(snaps) {
		return snaps
	}
	return append(snaps, make([]T, cells))
}

// thin moves snapshot 2i+1 to slot i for every i < half by swapping slice
// headers, so the snapshots it drops land in slots half to 2·half−1 for
// reuse: slot 2i+1 still holds its own snapshot when step i reads it,
// since the earlier steps wrote only slots below i and odd slots below
// 2i+1.
func thin[T uint8 | int32](snaps [][]T, half int) {
	for i := 0; i < half; i++ {
		snaps[i], snaps[2*i+1] = snaps[2*i+1], snaps[i]
	}
}

// vertexScratch is the reusable scratch of the per-vertex kernel: one
// vertex's retained rows as the kernel that loaded them reads them, the
// per-chain integer sums, and the running boundary sums of the lag loop.
// size shapes it for the history it reads, so the zero value is ready to
// use, and each row block is allocated once, at the buffer capacity.
// pairs counts the Geyer lag pairs the kernel has computed with this
// scratch.
type vertexScratch struct {
	// kernel is the kernel that loaded the vertex. b and rlen are the
	// chain count and the retained length, rb = ⌈b/8⌉ the bytes per packed
	// row and rw = 2rb the words per lane row.
	kernel          kernel
	b, rlen, rb, rw int
	// bits holds the 0/1 kernel's rows, row t at bits[t*rb:(t+1)*rb] with
	// chain c at bit c%8 of byte c/8, and eight bytes of padding; lanes
	// holds the lane kernel's, row t at lanes[t*rw:(t+1)*rw] with chain c
	// in 16-bit lane c%8/2 of word 2(c/8) + c%2, and rev the same rows with
	// each word's lanes reversed; rows holds the general kernel's, row t at
	// rows[t*b:(t+1)*b], cell (t, c) decoded to int32.
	bits       []uint8
	lanes, rev []uint64
	rows       []int32
	// acc holds a packing kernel's lane sums for each of the three parts
	// of a series — first half, middle cell (odd lengths), second half:
	// the 0/1 kernel's rb words per part, chain c's count in byte c%8 of
	// word c/8, or the lane kernel's rw words per part, laid out as its
	// rows.
	acc []uint64
	// sum holds each part's per-chain Σx, part p of chain c at p*b+c, and
	// sq each part's Σx² over all chains; total holds each chain's Σx, and
	// zeros up to 8rb entries.
	sum   []int64
	sq    [3]int64
	total []int64
	// seqMean holds the 2b half means of the split statistic and
	// chainMean the b chain means of the ESS.
	seqMean, chainMean []float64
	// ss is Σ_c total[c]²; after lag l of the lag loop, pre and suf are
	// the sums of w_t = Σ_c total[c]·x_{c,t} over the first and the last l
	// rows, t < l and t ≥ rlen − l.
	ss, pre, suf int64
	pairs        int
}

// size shapes sc for the history h: per-chain arrays for h's chain count,
// and the row blocks, when a kernel first needs one, at h's buffer
// capacity, so a scratch never regrows within a drive.
func (sc *vertexScratch) size(h *history) {
	B := h.b
	if len(sc.chainMean) != B {
		rb := (B + 7) / 8
		*sc = vertexScratch{
			rb:        rb,
			rw:        2 * rb,
			acc:       make([]uint64, 6*rb),
			sum:       make([]int64, 3*B),
			total:     make([]int64, 8*rb),
			seqMean:   make([]float64, 2*B),
			chainMean: make([]float64, B),
			pairs:     sc.pairs,
		}
	}
	sc.b, sc.rlen = B, h.rlen
}

// cell32 decodes a compact cell to the integer the kernel sums: symbols
// are themselves and the 0xFF sentinel is dist.Unset.
var cell32 = func() (t [256]int32) {
	for x := range t {
		t[x] = int32(x)
	}
	t[0xFF] = dist.Unset
	return t
}()

// kernel names the three ways of loading a vertex's rows and of forming
// their row products; all three compute the same integers.
type kernel uint8

const (
	// generalKernel decodes each cell to int32 (gather, dotPair).
	generalKernel kernel = iota
	// zeroOneKernel packs 0/1 cells one bit per chain (pack, andPair).
	zeroOneKernel
	// laneKernel packs cells below 128 four to a word (packLanes,
	// lanePair).
	laneKernel
)

// load reads vertex v's retained rows into sc and fills the part sums: by
// the 0/1 kernel when every retained cell of v is 0 or 1, by the lane
// kernel when every cell is a symbol below 128, and by the general kernel
// otherwise.
func (h *history) load(v int, sc *vertexScratch) {
	if !h.pack(v, sc) && !h.packLanes(v, sc) {
		h.gather(v, sc)
	}
}

// pack is the 0/1 kernel's load, for compact lattices: it packs vertex
// v's retained rows into one bit per chain and counts each part's ones
// per chain (for 0/1 cells Σx² = Σx). It reports false, leaving sc for
// the next kernel, on a wide lattice or at the first cell that is neither
// 0 nor 1 (Unset included).
func (h *history) pack(v int, sc *vertexScratch) bool {
	if !h.compact {
		return false
	}
	sc.size(h)
	B, L, rb := h.b, h.rlen, sc.rb
	if len(sc.bits) < rb*h.retain+8 {
		sc.bits = make([]uint8, rb*h.retain+8)
	}
	m, off := L/2, v*B
	parts := [4]int{0, m, L - m, L}
	clear(sc.acc)
	for p := range 3 {
		t0, t1 := parts[p], parts[p+1]
		if !pack8(h.snaps8[t0:t1], off, B, sc.bits[t0*rb:t1*rb], sc.acc[p*rb:(p+1)*rb]) {
			return false
		}
	}
	lanes(sc.sum, sc.acc[:3*rb], B)
	for p := range 3 {
		var q int64
		for _, x := range sc.sum[p*B : (p+1)*B] {
			q += x
		}
		sc.sq[p] = q
	}
	sc.kernel = zeroOneKernel
	return true
}

// Byte-lane constants of pack8: ones has bit 0 of every byte set, and
// packMul moves bit 0 of byte i to bit 56+i (the partial products of 0/1
// bytes never collide, so no carry disturbs the top byte). pack16 tests
// cells below 128 against high1, the top bit of every byte, and splits
// eight cells into 16-bit lanes with evenBytes.
const (
	ones      = 0x0101010101010101
	packMul   = 0x0102040810204080
	high1     = 0x8080808080808080
	evenBytes = 0x00FF00FF00FF00FF
)

// pack8 packs compact rows — row t is snaps[t][off:off+B] — into bits,
// ⌈B/8⌉ bytes per row, and adds each row's cells into the byte lanes of
// acc (a part holds at most 255 rows, which maxRetain keeps). It takes
// eight cells per step: one 64-bit load, one test, one add and one
// multiply. It reports false at the first cell that is neither 0 nor 1.
func pack8(snaps [][]uint8, off, B int, bits []uint8, acc []uint64) bool {
	full, rb := B/8, len(acc)
	for t, snap := range snaps {
		row := snap[off : off+B]
		dst := bits[t*rb : (t+1)*rb]
		for k := range full {
			w := binary.LittleEndian.Uint64(row[8*k:])
			if w&^ones != 0 {
				return false
			}
			acc[k] += w
			dst[k] = uint8(w * packMul >> 56)
		}
		if full < rb {
			var w uint64
			for i, x := range row[8*full:] {
				w |= uint64(x) << (8 * i)
			}
			if w&^ones != 0 {
				return false
			}
			acc[full] += w
			dst[full] = uint8(w * packMul >> 56)
		}
	}
	return true
}

// lanes writes the three parts' lane counts of acc into sum, part p of
// chain c at p*B+c.
func lanes(sum []int64, acc []uint64, B int) {
	rb := len(acc) / 3
	var buf [8]byte
	for i, w := range acc {
		p, k := i/rb, i%rb
		binary.LittleEndian.PutUint64(buf[:], w)
		s := sum[p*B+8*k : (p+1)*B]
		for j := range min(8, len(s)) {
			s[j] = int64(buf[j])
		}
	}
}

// packLanes is the lane kernel's load, for compact lattices: it packs
// vertex v's retained rows four cells to a word, and lane-reversed, and
// sums each part per chain and each part's Σx². It reports false, leaving
// sc for gather, on a wide lattice or at the first cell of 128 or more
// (Unset included).
func (h *history) packLanes(v int, sc *vertexScratch) bool {
	if !h.compact {
		return false
	}
	sc.size(h)
	B, L, rw := h.b, h.rlen, sc.rw
	if len(sc.lanes) < rw*h.retain {
		sc.lanes = make([]uint64, rw*h.retain)
		sc.rev = make([]uint64, rw*h.retain)
	}
	m, off := L/2, v*B
	parts := [4]int{0, m, L - m, L}
	clear(sc.acc)
	for p := range 3 {
		t0, t1 := parts[p], parts[p+1]
		q, ok := pack16(h.snaps8[t0:t1], off, B, sc.lanes[t0*rw:t1*rw], sc.rev[t0*rw:t1*rw], sc.acc[p*rw:(p+1)*rw])
		if !ok {
			return false
		}
		sc.sq[p] = q
	}
	lanes16(sc.sum, sc.acc, B)
	sc.kernel = laneKernel
	return true
}

// rev16 reverses the order of the four 16-bit lanes of x, each below 256:
// a byte swap reverses the lanes and moves each value to its lane's high
// byte, and the shift moves it back.
func rev16(x uint64) uint64 { return stdbits.ReverseBytes64(x) >> 8 }

// pack16 packs compact rows of cells below 128 — row t is
// snaps[t][off:off+B] — into fwd, 2⌈B/8⌉ words per row: cells 8k, 8k+2,
// 8k+4 and 8k+6 in the 16-bit lanes of word 2k, and the odd cells in word
// 2k+1, each a mask (and a shift) of the row's eight bytes; and the same
// words lane-reversed into rev. It adds each row's words into acc (a part
// holds at most 255 rows of cells below 128, which maxRetain keeps below
// 2¹⁶ per lane) and returns the part's Σx²: a word times its reversed
// word is the dot product of its four cells in the top lane (lanePair),
// so Σx² costs one multiply per word. It reports false at the first cell
// of 128 or more.
func pack16(snaps [][]uint8, off, B int, fwd, rev, acc []uint64) (q int64, ok bool) {
	rw, full := len(acc), B/8
	var sq uint64
	for t, snap := range snaps {
		row := snap[off : off+B]
		f, r := fwd[t*rw:(t+1)*rw], rev[t*rw:(t+1)*rw]
		for k := range rw / 2 {
			var w uint64
			if k < full {
				w = binary.LittleEndian.Uint64(row[8*k:])
			} else {
				for i, x := range row[8*full:] {
					w |= uint64(x) << (8 * i)
				}
			}
			if w&high1 != 0 {
				return 0, false
			}
			e, o := w&evenBytes, w>>8&evenBytes
			re, ro := rev16(e), rev16(o)
			f[2*k], f[2*k+1] = e, o
			r[2*k], r[2*k+1] = re, ro
			acc[2*k] += e
			acc[2*k+1] += o
			sq += e*re>>48 + o*ro>>48
		}
	}
	return int64(sq), true
}

// lanes16 writes the three parts' lane sums of acc, rw words per part
// laid out as pack16's rows, into sum, part p of chain c at p*B+c.
func lanes16(sum []int64, acc []uint64, B int) {
	rw := len(acc) / 3
	for p := range 3 {
		s, a := sum[p*B:(p+1)*B], acc[p*rw:(p+1)*rw]
		for c := range s {
			s[c] = int64(a[2*(c/8)+c%2] >> (16 * (c % 8 / 2)) & 0xFFFF)
		}
	}
}

// gather is the general kernel's load: it copies vertex v's retained rows,
// decoded, into the time-major block rows and sums each part. The copy
// decodes the Unset sentinel once per cell, and it makes a lag one flat
// dot product of the block against itself.
func (h *history) gather(v int, sc *vertexScratch) {
	sc.size(h)
	B, L := h.b, h.rlen
	if len(sc.rows) < B*h.retain {
		sc.rows = make([]int32, B*h.retain)
	}
	clear(sc.sum)
	m, off := L/2, v*B
	parts := [4]int{0, m, L - m, L}
	for p := range 3 {
		t0, t1 := parts[p], parts[p+1]
		rows, s := sc.rows[t0*B:t1*B], sc.sum[p*B:(p+1)*B]
		if h.compact {
			sc.sq[p] = gather8(h.snaps8[t0:t1], off, rows, s)
		} else {
			sc.sq[p] = gatherWide(h.snapsW[t0:t1], off, rows, s)
		}
	}
	sc.kernel = generalKernel
}

// gather8 copies compact rows — row t is snaps[t][off:off+len(s)] —
// decoded into rows, adds each cell into s and returns Σx².
func gather8(snaps [][]uint8, off int, rows []int32, s []int64) (q int64) {
	B := len(s)
	for t, snap := range snaps {
		row := snap[off : off+B]
		dst := rows[t*B : (t+1)*B][:len(row)]
		s := s[:len(row)]
		for c, x := range row {
			y := cell32[x]
			dst[c] = y
			s[c] += int64(y)
			q += int64(y) * int64(y)
		}
	}
	return q
}

// gatherWide is gather8 for wide rows.
func gatherWide(snaps [][]int32, off int, rows []int32, s []int64) (q int64) {
	B := len(s)
	for t, snap := range snaps {
		row := snap[off : off+B]
		dst := rows[t*B : (t+1)*B]
		dst, s := dst[:len(row)], s[:len(row)]
		for c, y := range row {
			dst[c] = y
			s[c] += int64(y)
			q += int64(y) * int64(y)
		}
	}
	return q
}

// andPair is the 0/1 kernel's row product at lags l and l+1: Σ_t
// popcount(row_t AND row_{t+l}) over t < L−l, the number of (chain, t)
// with x_{c,t} = x_{c,t+l} = 1, and the same at l+1. The packed rows are
// contiguous and a lag shifts them by l·rb bytes, so each lag is one flat
// pass of 64-bit ANDs over the bytes; bits carries eight bytes of padding
// for the loads past the last row.
func andPair(bits []uint8, rb, l, L int) (d0, d1 int64) {
	n := (L - l - 1) * rb
	o0, o1 := l*rb, (l+1)*rb
	s0, s1 := 0, 0
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(bits[i:])
		s0 += stdbits.OnesCount64(x & binary.LittleEndian.Uint64(bits[o0+i:]))
		s1 += stdbits.OnesCount64(x & binary.LittleEndian.Uint64(bits[o1+i:]))
	}
	if i < n {
		// The last n−i < 8 bytes: mask off what follows them.
		mask := uint64(1)<<(8*(n-i)) - 1
		x := binary.LittleEndian.Uint64(bits[i:]) & mask
		s0 += stdbits.OnesCount64(x & binary.LittleEndian.Uint64(bits[o0+i:]))
		s1 += stdbits.OnesCount64(x & binary.LittleEndian.Uint64(bits[o1+i:]))
	}
	// Lag l pairs one more row: row L−l−1 with row L−1.
	last, end := bits[n:n+rb], bits[(L-1)*rb:L*rb]
	for i, x := range last {
		s0 += stdbits.OnesCount8(x & end[i])
	}
	return int64(s0), int64(s1)
}

// dotPair is the general kernel's row product at lags l and l+1: Σ_t
// ⟨row_t, row_{t+l}⟩ over t < L−l, and the same at l+1, on the time-major
// block of rows b cells wide — one flat dot product per lag.
func dotPair(rows []int32, b, l, L int) (d0, d1 int64) {
	n := (L - l - 1) * b
	a := rows[:n]
	b0 := rows[l*b:][:n]
	b1 := rows[(l+1)*b:][:n]
	for i, x := range a {
		y := int64(x)
		d0 += y * int64(b0[i])
		d1 += y * int64(b1[i])
	}
	last, end := rows[n:n+b], rows[(L-1)*b:L*b]
	for i, x := range last {
		d0 += int64(x) * int64(end[i])
	}
	return d0, d1
}

// lanePair is the lane kernel's row product at lags l and l+1: Σ_t
// ⟨row_t, row_{t+l}⟩ over t < L−l, and the same at l+1. Four cells below
// 128 in the 16-bit lanes of a word x, and four in the lanes of y taken
// in reverse order, multiply to Σ_i x_i·y_i in the product's top lane: no
// partial sum of the product reaches 4·127² < 2¹⁶, so none carries. The
// rows are contiguous, so each lag is one flat pass of one multiply per
// four cells.
func lanePair(fwd, rev []uint64, rw, l, L int) (d0, d1 int64) {
	n := (L - l - 1) * rw
	a := fwd[:n]
	b0 := rev[l*rw:][:n]
	b1 := rev[(l+1)*rw:][:n]
	var s0, s1 uint64
	for i, x := range a {
		s0 += x * b0[i] >> 48
		s1 += x * b1[i] >> 48
	}
	last, end := fwd[n:n+rw], rev[(L-1)*rw:L*rw]
	for i, x := range last {
		s0 += x * end[i] >> 48
	}
	return int64(s0), int64(s1)
}

// weighBits returns w = Σ_c s[c] over the chains whose bit is set in the
// packed row.
func weighBits(row []uint8, s []int64) int64 {
	var w int64
	for k, x := range row {
		base := s[8*k:]
		for ; x != 0; x &= x - 1 {
			w += base[stdbits.TrailingZeros8(x)]
		}
	}
	return w
}

// weighRow returns w = Σ_c s[c]·row[c].
func weighRow(row []int32, s []int64) int64 {
	var w int64
	s = s[:len(row)]
	for c, x := range row {
		w += int64(x) * s[c]
	}
	return w
}

// weighLanes returns w = Σ_c s[c]·x_c over the cells of the lane row; s
// is zero past the row's chains, up to 4·len(row) entries.
func weighLanes(row []uint64, s []int64) int64 {
	var w int64
	for k := 0; k+1 < len(row); k += 2 {
		e, o, t := row[k], row[k+1], s[4*k:][:8]
		w += t[0]*int64(e&0xFFFF) + t[2]*int64(e>>16&0xFFFF) + t[4]*int64(e>>32&0xFFFF) + t[6]*int64(e>>48) +
			t[1]*int64(o&0xFFFF) + t[3]*int64(o>>16&0xFFFF) + t[5]*int64(o>>32&0xFFFF) + t[7]*int64(o>>48)
	}
	return w
}

// weigh returns w_t = Σ_c total[c]·x_{c,t} of the loaded row t.
func (sc *vertexScratch) weigh(t int) int64 {
	switch sc.kernel {
	case zeroOneKernel:
		return weighBits(sc.bits[t*sc.rb:(t+1)*sc.rb], sc.total)
	case laneKernel:
		return weighLanes(sc.lanes[t*sc.rw:(t+1)*sc.rw], sc.total)
	}
	return weighRow(sc.rows[t*sc.b:(t+1)*sc.b], sc.total)
}

// lagSum extends the boundary sums pre and suf to lag l, which must be
// one more than the last lag they cover, and returns N_l, the lag-l
// autocovariance summed over chains scaled by L²:
//
//	N_l = Σ_c [L²·P_{c,l} − L·S_c·(F_{c,l} + G_{c,l}) + (L−l)·S_c²]
//	    = L²·D_l + L·(pre + suf) − (L+l)·ss,
//
// where P_{c,l} = Σ_{t<L−l} x_t·x_{t+l}, F = Σ_{t<L−l} x_t, G = Σ_{t≥l}
// x_t, S_c = total[c] and D_l = Σ_c P_{c,l} is the row product d: for F and
// G, Σ_c S_c·F = ss − suf and Σ_c S_c·G = ss − pre.
func (sc *vertexScratch) lagSum(l int, d int64) int64 {
	sc.pre += sc.weigh(l - 1)
	sc.suf += sc.weigh(sc.rlen - l)
	L := int64(sc.rlen)
	return L*L*d + L*(sc.pre+sc.suf) - (L+int64(l))*sc.ss
}

// gammaPair returns the within-chain autocovariances at lags l and l+1,
// averaged over chains with the standard estimator's biased 1/L scaling:
// N_l/(B·L³), each a correctly rounded quotient of two integers while
// |N_l| ≤ 2⁵³. Lags come in the Geyer loop's order, l = 1, 3, 5, …
func (sc *vertexScratch) gammaPair(l int) (g0, g1 float64) {
	var d0, d1 int64
	switch sc.kernel {
	case zeroOneKernel:
		d0, d1 = andPair(sc.bits, sc.rb, l, sc.rlen)
	case laneKernel:
		d0, d1 = lanePair(sc.lanes, sc.rev, sc.rw, l, sc.rlen)
	default:
		d0, d1 = dotPair(sc.rows, sc.b, l, sc.rlen)
	}
	L := int64(sc.rlen)
	den := float64(int64(sc.b) * L * L * L)
	return float64(sc.lagSum(l, d0)) / den, float64(sc.lagSum(l+1, d1)) / den
}

// SplitReady reports whether enough observations are buffered for the
// split statistic and the effective sample size (≥ 4 retained).
func (r *Rhat) SplitReady() bool { return r.rlen >= 4 }

// ready returns nil when SplitReady holds and otherwise an error naming
// the statistic that needs it.
func (r *Rhat) ready(what string) error {
	if r.SplitReady() {
		return nil
	}
	return fmt.Errorf("sampler: %s needs ≥ 4 retained observations, have %d", what, r.rlen)
}

// rhatAt returns the classic whole-chain Gelman–Rubin statistic of vertex v
// over the observations so far. A vertex with zero variance everywhere
// (pinned, or a frozen degree of freedom) reports exactly 1; zero
// within-chain variance with disagreeing chains reports +Inf. At least two
// observations are required.
func (r *Rhat) rhatAt(v int) (float64, error) {
	if err := r.observed(); err != nil {
		return 0, err
	}
	return r.at(v), nil
}

// observed returns nil when the whole-chain statistic has its two
// observations and otherwise the error saying so.
func (r *Rhat) observed() error {
	if r.count >= 2 {
		return nil
	}
	return fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 observations, have %d", r.count)
}

// at is rhatAt without the observation-count check.
func (r *Rhat) at(v int) float64 {
	B := r.b
	T := float64(r.count)
	means := r.mean[v*B : (v+1)*B]
	m2 := r.m2[v*B : (v+1)*B]
	grand := 0.0
	for _, m := range means {
		grand += m
	}
	grand /= float64(B)
	within, between := 0.0, 0.0
	for c := 0; c < B; c++ {
		within += m2[c] / (T - 1)
		d := means[c] - grand
		between += d * d
	}
	return psrf(within, between, B, T)
}

// psrf is the potential scale reduction factor of k sequences of n
// observations each, from the sum of their within-sequence variances and
// the sum of squared deviations of their means from the grand mean. All
// sequences constant and equal report exactly 1; zero within-sequence
// variance with disagreeing sequences reports +Inf.
func psrf(within, between float64, k int, n float64) float64 {
	within /= float64(k)
	between = between * n / float64(k-1)
	if within == 0 {
		if between == 0 {
			return 1
		}
		return math.Inf(1)
	}
	varPlus := (n-1)/n*within + between/n
	return math.Sqrt(varPlus / within)
}

// splitAt returns the split Gelman–Rubin statistic of vertex v: every
// retained chain series is split into first and second halves, and the
// classic statistic is computed over the resulting 2B sequences — so a
// chain drifting within itself (e.g. wandering between modes) inflates
// the statistic even when whole-chain means agree. Conventions match rhatAt:
// all-constant sequences report exactly 1, zero within-sequence variance
// with disagreeing sequences reports +Inf. SplitReady must hold.
func (r *Rhat) splitAt(v int) (float64, error) {
	if err := r.ready("split R̂"); err != nil {
		return 0, err
	}
	split, _ := r.vertexStats(v, &r.q.own, math.Inf(1))
	return split, nil
}

// essAt returns the effective sample size of vertex v pooled across
// chains: B·T/τ, where τ is the integrated autocorrelation time estimated
// on the retained series by Geyer's initial-monotone-sequence rule over
// the multi-chain autocorrelations (the Stan estimator: within-chain
// autocovariances against the pooled var⁺, so chains frozen at different
// values drive the ESS to 0 rather than hiding in per-chain terms). When
// the buffer has thinned, the estimate is scaled by the retention stride —
// the retained series stands in for the evenly spaced history it samples.
// A vertex with no variance anywhere (pinned, or frozen identically in
// every chain) is perfectly estimated and reports the full pooled count
// B times the observation count. SplitReady must hold.
func (r *Rhat) essAt(v int) (float64, error) {
	if err := r.ready("ESS"); err != nil {
		return 0, err
	}
	_, ess := r.vertexStats(v, &r.q.own, math.Inf(1))
	return ess, nil
}

// vertexStats is the per-vertex kernel behind splitAt, essAt and Check: it
// loads vertex v's retained rows once and returns its split R̂ and its
// effective sample size. SplitReady must hold.
//
// Every value is a fixed float64 formula of exact integer sums, with m =
// ⌊L/2⌋ and S, Q a series' Σx and Σx²: the half means S_A/m and S_B/m and
// the chain means S/L, bit for bit what float sums of the same integers
// give; the sum of the 2B half variances, Σ_h (m·Q_h − S_h²)/(m(m−1)), and
// the within-chain variance W = Σ_c (L·Q_c − S_c²)/(B·L(L−1)), each one
// quotient of integer sums; and the lag autocovariances of gammaPair. Each
// quotient is correctly rounded while its numerator stays below 2⁵³, and
// integer sums may be formed in any order, so the 0/1, the lane and the
// general kernel agree bit for bit.
//
// The ESS is exact unless it provably exceeds bound: the Geyer loop then
// stops early and returns a lower bound lb of the ESS with lb > bound.
// splitAt and essAt pass +Inf and so always get the exact value. After lag
// pair k is added, every pair still to come is, once clamped, between 0
// and the current pair p (the monotone rule), and at most (L−2−k)/2 of
// them remain, so the final sum is at most sum + p·(L−2−k)/2 and lb is
// B·stride·L over 1 + 2·(that bound). A pass's worker bounds each vertex
// by the smallest ESS it has found times 1 + essMargin. The full loop's
// sum adds at most retain/2 non-negative terms and lb's denominator rounds
// differently, which moves either by under 1e-13 relative; so an ESS that
// returns lb is strictly above one the pass has attained, and it can
// neither win nor tie the fold. The split statistic is always exact, and a
// vertex whose ESS is 0 (chains frozen apart) or the full pooled count
// (frozen everywhere) returns before the loop.
func (h *history) vertexStats(v int, sc *vertexScratch, bound float64) (split, ess float64) {
	h.load(v, sc)
	return h.stats(sc, bound)
}

// stats is vertexStats on the vertex either kernel has loaded into sc.
func (h *history) stats(sc *vertexScratch, bound float64) (split, ess float64) {
	B, L := h.b, h.rlen
	m := L / 2
	mf, Lf := float64(m), float64(L)
	within, splitGrand, W, grand := sc.moments(m)

	// Split R̂ over the 2B half sequences.
	nseq := 2 * B
	splitGrand /= float64(nseq)
	between := 0.0
	for _, x := range sc.seqMean {
		d := x - splitGrand
		between += d * d
	}
	split = psrf(within, between, nseq, mf)

	// ESS over the B whole-chain series.
	total := float64(B) * float64(h.count)
	grand /= float64(B)
	between = 0.0
	for _, x := range sc.chainMean {
		d := x - grand
		between += d * d
	}
	between /= float64(B - 1)
	varPlus := (Lf-1)/Lf*W + between
	if varPlus == 0 {
		// Frozen everywhere: the constant is known exactly.
		return split, total
	}
	if W == 0 {
		// Chains frozen apart: no amount of further observation helps.
		return split, 0
	}
	// Geyer: sum lag-pair autocorrelations while the pair sums stay
	// non-negative, enforcing monotone non-increase; stop once the ESS
	// provably exceeds bound.
	scale := float64(B) * float64(h.stride*L)
	sum, prev := 0.0, math.Inf(1)
	for k := 1; k+1 < L; k += 2 {
		g0, g1 := sc.gammaPair(k)
		sc.pairs++
		p := (1 - (W-g0)/varPlus) + (1 - (W-g1)/varPlus)
		if p < 0 {
			break
		}
		if p > prev {
			p = prev
		}
		prev = p
		sum += p
		if lb := scale / (1 + 2*(sum+p*float64((L-2-k)/2))); lb > bound {
			return split, lb
		}
	}
	tau := 1 + 2*sum
	ess = scale / tau
	return split, math.Min(ess, total)
}

// moments finishes the loaded vertex's part sums: the chain totals, the
// half and chain means, and four statistics. within is the sum of the 2B
// half variances and w the within-chain variance W, each one quotient of
// exact integers, Σ_h (m·Q_h − S_h²) over m(m−1) and Σ_c (L·Q_c − S_c²)
// over B·L(L−1); splitGrand and grand sum the half and the chain means,
// chain by chain. It resets the lag loop's boundary sums.
func (sc *vertexScratch) moments(m int) (within, splitGrand, w, grand float64) {
	B, L := sc.b, sc.rlen
	mf, Lf := float64(m), float64(L)
	sumA, sumM, sumB := sc.sum[:B], sc.sum[B:2*B], sc.sum[2*B:3*B]
	seqMean, means, total := sc.seqMean[:2*B], sc.chainMean[:B], sc.total[:B]
	var halves, ss int64
	for c := range total {
		sa, sb := sumA[c], sumB[c]
		s := sa + sumM[c] + sb
		meanA, meanB, mean := float64(sa)/mf, float64(sb)/mf, float64(s)/Lf
		seqMean[2*c], seqMean[2*c+1] = meanA, meanB
		// Two adds, not one of meanA + meanB: the split statistic's grand
		// mean sums the 2B half means one at a time.
		splitGrand += meanA
		splitGrand += meanB
		means[c] = mean
		grand += mean
		total[c] = s
		halves += sa*sa + sb*sb
		ss += s * s
	}
	qA, qM, qB := sc.sq[0], sc.sq[1], sc.sq[2]
	m64, L64 := int64(m), int64(L)
	within = float64(m64*(qA+qB)-halves) / float64(m64*(m64-1))
	w = float64(L64*(qA+qM+qB)-ss) / float64(int64(B)*L64*(L64-1))
	sc.ss, sc.pre, sc.suf = ss, 0, 0
	return within, splitGrand, w, grand
}

// essMargin is the relative margin by which a pass's bound clears the
// smallest ESS found, far above the rounding vertexStats allows for.
const essMargin = 1e-9

// Diagnostics is one convergence check over every vertex: the worst
// whole-chain R̂, the worst split R̂ and the smallest effective sample
// size, each with the vertex attaining it (the lowest such vertex on
// ties).
type Diagnostics struct {
	Rhat        float64
	WorstVertex int
	SplitRhat   float64
	SplitVertex int
	ESS         float64
	ESSVertex   int
}

// fold takes each pass statistic of o that is worse than d's, or as bad
// at a lower vertex. The result is the sequential scan's — the lowest
// vertex attaining the worst value — whatever order the vertices, or the
// partial results of several workers, are folded in. The empty result's
// vertex is −1, so a vertex as bad as its ±Inf never replaces it, as in
// the sequential scan.
func (d *Diagnostics) fold(o Diagnostics) {
	if o.SplitRhat > d.SplitRhat || o.SplitRhat == d.SplitRhat && o.SplitVertex < d.SplitVertex {
		d.SplitRhat, d.SplitVertex = o.SplitRhat, o.SplitVertex
	}
	if o.ESS < d.ESS || o.ESS == d.ESS && o.ESSVertex < d.ESSVertex {
		d.ESS, d.ESSVertex = o.ESS, o.ESSVertex
	}
}

// noPass is the empty pass result every fold starts from.
var noPass = Diagnostics{
	SplitRhat: math.Inf(-1), SplitVertex: -1,
	ESS: math.Inf(1), ESSVertex: -1,
}

// frozen is the input of one split-R̂/ESS pass: a frozen view of the
// history and the vertex its scan puts first, the worst whole-chain-R̂
// vertex, the likeliest to mix worst; the rest follow in index order.
type frozen struct {
	view  history
	first int
}

// vertexAt returns the vertex at scan position i: first at position 0,
// then every other vertex in index order.
func (f *frozen) vertexAt(i int) int {
	switch {
	case i == 0:
		return f.first
	case i <= f.first:
		return i - 1
	}
	return i
}

// scanRange folds the statistics of scan positions [lo, hi) into d, in
// scan order. The ESS kernel is bounded by d's smallest ESS so far: a
// vertex it stops early reports more than that, so the fold never takes
// it.
func (f *frozen) scanRange(lo, hi int, sc *vertexScratch, d *Diagnostics) {
	for i := lo; i < hi; i++ {
		v := f.vertexAt(i)
		split, ess := f.view.vertexStats(v, sc, d.ESS*(1+essMargin))
		d.fold(Diagnostics{SplitRhat: split, SplitVertex: v, ESS: ess, ESSVertex: v})
	}
}

// inlinePass is the split-R̂/ESS pass Check runs on the caller. Its
// workers — goroutines, each with its own scratch, and the caller — claim
// chunks of consecutive scan positions until none are left, so a pass
// ends as soon as the cores that did start have scanned every vertex; each
// worker bounds the ESS kernel by the smallest ESS it has found so far.
// A backlog has one, which every Check of its accumulators reuses.
type inlinePass struct {
	frozen
	// next is the first scan position no worker has claimed, and a claim
	// takes chunk consecutive positions.
	next  atomic.Int64
	chunk int64
	// mine is the caller's share of the result.
	mine Diagnostics
	// workers are the goroutines' slots, k of them open to this pass; the
	// scratch of each is shaped when its slot is first opened and kept.
	// work is the goroutines' entry point, bound once so a start
	// allocates nothing once the slots exist.
	workers []*passWorker
	k       int
	work    func()
	// mu guards open (the pass takes workers), used (slots taken) and
	// running (workers still scanning); idle is signalled when the last
	// running worker leaves.
	mu            sync.Mutex
	idle          sync.Cond
	open          bool
	used, running int
}

// passWorker is one goroutine's slot in an inline pass: its kernel scratch
// and its share of the result.
type passWorker struct {
	vertexScratch
	d Diagnostics
}

// start freezes the view h and starts k worker goroutines on it, scanning
// vertex first first; the caller is one more worker once it finishes the
// pass. Chunks are small enough that the workers can share the vertices
// evenly.
func (p *inlinePass) start(h history, k, first int) {
	p.frozen = frozen{view: h, first: first}
	p.k = k
	for len(p.workers) < k {
		p.workers = append(p.workers, &passWorker{})
	}
	// Shape every open slot's scratch here, whether or not its goroutine
	// starts before the pass ends, so a slot first taken in a later pass
	// allocates at most its kernel's row block.
	for _, w := range p.workers[:k] {
		w.size(&p.view)
	}
	p.next.Store(0)
	p.chunk = int64(max(h.n/(8*(k+1)), 1))
	p.mine = noPass
	p.mu.Lock()
	p.open, p.used = true, 0
	p.mu.Unlock()
	for range k {
		go p.work()
	}
}

// worker is a goroutine's turn at the pass: it takes a free slot, if the
// pass is still open and has one, and scans chunks until none are left. A
// goroutine that starts after its pass has finished finds it closed, or
// finds a later pass and works on that one.
func (p *inlinePass) worker() {
	p.mu.Lock()
	if !p.open || p.used == p.k {
		p.mu.Unlock()
		return
	}
	w := p.workers[p.used]
	p.used++
	p.running++
	p.mu.Unlock()
	w.d = noPass
	p.scan(&w.vertexScratch, &w.d)
	p.mu.Lock()
	p.running--
	if p.running == 0 {
		p.idle.Signal()
	}
	p.mu.Unlock()
}

// scan claims chunks of scan positions until none are left and folds each
// vertex's statistics into d, in scan order.
func (p *inlinePass) scan(sc *vertexScratch, d *Diagnostics) {
	n, c := int64(p.view.n), p.chunk
	for {
		lo := p.next.Add(c) - c
		if lo >= n {
			return
		}
		p.scanRange(int(lo), int(min(lo+c, n)), sc, d)
	}
}

// finish scans what no worker has claimed on the caller, with the
// caller's scratch sc, then closes the pass to goroutines that have not
// started and waits for the workers still scanning, each at most one chunk
// from done. So it never waits for a core to start, and it costs at most
// what the whole pass costs on the caller.
func (p *inlinePass) finish(sc *vertexScratch) {
	p.scan(sc, &p.mine)
	p.mu.Lock()
	p.open = false
	for p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// result folds the caller's and the workers' shares: the split R̂ and ESS
// fields of the check, the whole-chain fields left zero.
func (p *inlinePass) result() Diagnostics {
	d := p.mine
	for _, w := range p.workers[:p.used] {
		d.fold(w.d)
	}
	return d
}

// Check runs one convergence check on the caller: the worst whole-chain
// R̂ (Worst) and then the split-R̂/ESS pass, the worst split R̂ and the
// smallest effective sample size, which scans the worst whole-chain-R̂
// vertex first. The caller and psample.DefaultWorkers(n) − 1
// goroutines share the pass's vertices, each with its own scratch, and
// fold their results. The diagnostics draw no random numbers, so the
// result is the sequential scan's, bit for bit and vertex for vertex,
// whatever GOMAXPROCS is; and the check uses every core even when the
// engines run on one. An empty instance reports R̂ 1 and the full pooled
// count, B times the observation count, at vertex 0. The one error is
// SplitReady not holding.
func (r *Rhat) Check() (Diagnostics, error) {
	if r.n == 0 {
		return r.emptyCheck(), nil
	}
	if err := r.ready("a convergence check"); err != nil {
		return Diagnostics{}, err
	}
	wv, rhat := r.worst()
	p := &r.q.inline
	p.start(r.history, psample.DefaultWorkers(r.n)-1, wv)
	p.finish(&r.q.own)
	d := p.result()
	d.WorstVertex, d.Rhat = wv, rhat
	return d, nil
}

// emptyCheck is the check of an instance with no vertices: R̂ 1 and the
// full pooled count, at vertex 0.
func (r *Rhat) emptyCheck() Diagnostics {
	return Diagnostics{Rhat: 1, SplitRhat: 1, ESS: float64(r.b) * float64(r.count)}
}

// Backlog is one drive's queue of deferred split-R̂/ESS passes, first in,
// first out, and the kernel scratch of every accumulator made on it
// (Backlog.NewRhat). Rhat.Queue appends an accumulator's pass. Up to the
// backlog's core count of background workers — goroutines started as
// passes arrive, which exit once none is left — each take a whole pass,
// oldest first, and scan it with their own scratch, bounding the ESS
// search across all of the pass's vertices. Drain finishes the backlog on
// the caller: it takes the passes no worker has taken, oldest first,
// waits for the workers to finish theirs and exit, and returns every
// result in queue order. A caller that drains before it returns leaves no
// pass or goroutine behind.
//
// A backlog and its accumulators belong to one goroutine, the caller; the
// workers are their only other users. The passes of an accumulator the
// caller has stopped observing (an escalated stage's) stay valid and drain
// with the rest.
type Backlog struct {
	cores int
	// mu guards the passes' states, head, active and free; done is
	// broadcast whenever a pass is done or a worker exits.
	mu   sync.Mutex
	done sync.Cond
	// passes[:n] are the passes queued since the last Drain, in queue
	// order, and none before head is still queued; the records past n are
	// kept for reuse.
	passes  []*queuedPass
	n, head int
	// active counts the running workers and free holds the scratch of the
	// workers not running; work is their entry point, bound once so a
	// start allocates nothing.
	active int
	free   []*vertexScratch
	work   func()
	// own is the caller's scratch, inline the pass Check runs and results
	// Drain's return value.
	own     vertexScratch
	inline  inlinePass
	results []Diagnostics
}

// queuedPass is one pass of a backlog: the accumulator whose buffer it
// reads, its frozen input, how far it has got and, once done, its result.
type queuedPass struct {
	frozen
	r     *Rhat
	state passState
	d     Diagnostics
}

// passState is where a queued pass stands: queued, taken by a worker or
// the caller, or done.
type passState uint8

const (
	passQueued passState = iota
	passTaken
	passDone
)

// NewBacklog returns an empty backlog whose passes run on up to cores
// background workers; with none (cores ≤ 0) Drain runs every pass on the
// caller.
func NewBacklog(cores int) *Backlog {
	cores = max(cores, 0)
	q := &Backlog{cores: cores, free: make([]*vertexScratch, 0, cores)}
	q.done.L = &q.mu
	q.work = q.worker
	q.inline.idle.L = &q.inline.mu
	q.inline.work = q.inline.worker
	return q
}

// Queue defers the split-R̂/ESS pass of a convergence check at the current
// observation to the accumulator's backlog, whose Drain returns its
// result in queue order: Check's split R̂ and ESS fields at this moment,
// bit for bit (the whole-chain fields are zero: read them from Worst).
// The pass scans first the vertex of a Worst call at the current
// observation count, running that scan now if there was none: the pass
// itself never reads the running moments, which Observe goes on changing.
// Meanwhile the caller may go on advancing the engine and calling Observe,
// Worst, Check and Queue. An empty instance's pass is done at once, with
// Check's result. The one error is SplitReady not holding.
func (r *Rhat) Queue() error {
	if r.n > 0 {
		if err := r.ready("a convergence check"); err != nil {
			return err
		}
		if r.worstAt != r.count {
			r.worst()
		}
	}
	q := r.q
	q.mu.Lock()
	if q.n == len(q.passes) {
		q.passes = append(q.passes, new(queuedPass))
	}
	p := q.passes[q.n]
	q.n++
	p.r = r
	start := false
	if r.n == 0 {
		p.state, p.d = passDone, r.emptyCheck()
	} else {
		p.frozen = frozen{view: r.history, first: r.worstV}
		p.state = passQueued
		if start = q.active < q.cores; start {
			q.active++
		}
	}
	q.mu.Unlock()
	if start {
		go q.work()
	}
	return nil
}

// Drain finishes every pass queued since the last Drain and returns their
// results in queue order, in a slice the backlog reuses at the next
// Drain. The caller takes the passes no worker has taken, oldest first,
// while the workers finish theirs, and Drain returns once every worker
// has exited: no pass or worker outlives it.
func (q *Backlog) Drain() []Diagnostics {
	q.mu.Lock()
	defer q.mu.Unlock()
	for p := q.next(); p != nil; p = q.next() {
		q.run(p, &q.own)
	}
	for q.active > 0 {
		q.done.Wait()
	}
	if cap(q.results) < q.n {
		q.results = make([]Diagnostics, 0, q.n)
	}
	q.results = q.results[:0]
	for _, p := range q.passes[:q.n] {
		q.results = append(q.results, p.d)
		*p = queuedPass{}
	}
	q.n, q.head = 0, 0
	return q.results
}

// settle finishes r's passes before r thins its buffer under their views.
// It first runs on the caller every pass of r still queued, oldest first,
// while the workers go on with theirs, and only then waits for those a
// worker has taken. Waiting first would let a worker take r's next pass
// each time it finished one, before the caller woke to take it.
func (q *Backlog) settle(r *Rhat) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, p := range q.passes[:q.n] {
		if p.r == r && p.state == passQueued {
			p.state = passTaken
			q.run(p, &q.own)
		}
	}
	for _, p := range q.passes[:q.n] {
		for p.r == r && p.state != passDone {
			q.done.Wait()
		}
	}
}

// worker is a background worker: it takes queued passes, oldest first,
// and runs each whole with one scratch until none is left, then exits.
func (q *Backlog) worker() {
	q.mu.Lock()
	defer q.mu.Unlock()
	var sc *vertexScratch
	if k := len(q.free); k > 0 {
		sc, q.free = q.free[k-1], q.free[:k-1]
	} else {
		sc = new(vertexScratch)
	}
	for p := q.next(); p != nil; p = q.next() {
		q.run(p, sc)
	}
	q.free = append(q.free, sc)
	q.active--
	q.done.Broadcast()
}

// next marks the oldest queued pass taken and returns it, or nil when
// none is queued. mu must be held.
func (q *Backlog) next() *queuedPass {
	for ; q.head < q.n; q.head++ {
		if p := q.passes[q.head]; p.state == passQueued {
			p.state = passTaken
			q.head++
			return p
		}
	}
	return nil
}

// run scans the taken pass p whole with the scratch sc, with mu released,
// and marks it done. mu must be held.
func (q *Backlog) run(p *queuedPass, sc *vertexScratch) {
	q.mu.Unlock()
	p.d = noPass
	p.scanRange(0, p.view.n, sc, &p.d)
	q.mu.Lock()
	p.state = passDone
	q.done.Broadcast()
}

// Worst returns the vertex with the largest whole-chain R̂ and its value.
// It reads only the running moments, not the snapshot buffer.
func (r *Rhat) Worst() (v int, rhat float64, err error) {
	if r.n == 0 {
		return 0, 1, nil
	}
	if err := r.observed(); err != nil {
		return 0, 0, err
	}
	v, rhat = r.worst()
	return v, rhat, nil
}

// worst is Worst's scan, in vertex order with strict comparisons. It
// records the vertex, and the observation count it scanned at, for the
// pass's scan order.
func (r *Rhat) worst() (v int, rhat float64) {
	v, rhat = -1, math.Inf(-1)
	for u := 0; u < r.n; u++ {
		if x := r.at(u); x > rhat {
			v, rhat = u, x
		}
	}
	r.worstV, r.worstAt = v, r.count
	return v, rhat
}

// WorstSplit returns the vertex with the largest split R̂ and its value:
// Check's split field.
func (r *Rhat) WorstSplit() (v int, rhat float64, err error) {
	d, err := r.Check()
	if err != nil {
		return 0, 0, r.ready("split R̂")
	}
	return d.SplitVertex, d.SplitRhat, nil
}

// MinESS returns the vertex with the smallest effective sample size and
// its value — the bottleneck against a min-ESS target: Check's ESS field.
// An empty instance reports the full pooled count.
func (r *Rhat) MinESS() (v int, ess float64, err error) {
	d, err := r.Check()
	if err != nil {
		return 0, 0, r.ready("ESS")
	}
	return d.ESSVertex, d.ESS, nil
}
