// Package state is the compact state container shared by every sampling
// engine of the repo: a Lattice holds the configurations of B independent
// chains over n vertices in one chain-major structure-of-arrays block —
// cell (v, c) lives at vals[v*B+c] — so that updating one vertex across
// many chains touches contiguous memory, and the whole B×n working set is
// as small as the domain allows.
//
// Every model this repo builds (hardcore, Ising, colorings, matchings,
// hypergraph matchings) has a domain size q far below 256, so the default
// cell representation is one byte: symbols 0..q−1 are stored verbatim in a
// []uint8 and the Unset sentinel of dist.Config maps to 0xFF (which is why
// compact storage requires q ≤ MaxCompactQ = 255 — 0xFF must stay free).
// Alphabets above that fall back to []int cells with dist.Unset itself as
// the sentinel. Both representations are behind the same accessors;
// engines that need the raw cells for a hot loop branch once on Compact()
// and specialize via the Cells type-set constraint.
//
// The package sits below the Gibbs machinery: it imports only
// internal/dist, and pack/unpack to dist.Config happens here, at the API
// boundary, so no engine hand-rolls its own state layout.
package state

import (
	"fmt"

	"repro/internal/dist"
)

// MaxCompactQ is the largest alphabet stored in uint8 cells: 0xFF is
// reserved as the compact Unset sentinel, leaving symbols 0..254.
const MaxCompactQ = 255

// unset8 is the compact-cell Unset sentinel. uint8(dist.Unset) == unset8 by
// two's-complement truncation, which is what lets Set store dist.Unset
// without branching on it.
const unset8 = 0xFF

// Cells is the type-set constraint of the two cell representations. Generic
// kernels instantiated over it compile to genuinely specialized code for
// each width (uint8 and int are distinct gcshapes).
type Cells interface{ ~uint8 | ~int }

// Valid reports whether cell x holds an assigned symbol of a q-ary domain.
// One unsigned compare covers both sentinels: the wide Unset (−1) wraps to
// a huge unsigned value and the compact Unset (0xFF) is ≥ q because
// compact storage caps q at 255.
func Valid[T Cells](x T, q int) bool {
	return uint(int(x)) < uint(q)
}

// DomainError is the typed construction error of a Lattice: the requested
// shape (vertices, chains, alphabet) is not a lattice this package can
// represent. Callers surface it to users instead of panicking on absurd
// inputs.
type DomainError struct {
	N, Chains, Q int
	Reason       string
}

func (e *DomainError) Error() string {
	return fmt.Sprintf("state: invalid lattice n=%d chains=%d q=%d: %s", e.N, e.Chains, e.Q, e.Reason)
}

// compactLimit is the largest q stored compactly by New. Tests lower it via
// SetCompactLimitForTest to force the wide fallback on small alphabets.
var compactLimit = MaxCompactQ

// SetCompactLimitForTest overrides the q threshold below which New picks
// compact cells, returning a restore func. It exists so property tests can
// run the same model through both representations; production code must
// never call it.
func SetCompactLimitForTest(limit int) (restore func()) {
	old := compactLimit
	compactLimit = limit
	return func() { compactLimit = old }
}

// Lattice is the chain-major state of `chains` configurations over n
// vertices with symbols in 0..q−1. Exactly one of the two backing slices is
// non-nil. All cells start Unset.
type Lattice struct {
	n      int
	chains int
	q      int
	u8     []uint8
	wide   []int
}

// validate checks the lattice shape, returning a *DomainError on the first
// violation. q bounds are validated once, here — every engine that builds
// its state through this package inherits the check.
func validate(n, chains, q int) error {
	switch {
	case n < 0:
		return &DomainError{N: n, Chains: chains, Q: q, Reason: "negative vertex count"}
	case chains <= 0:
		return &DomainError{N: n, Chains: chains, Q: q, Reason: "need at least one chain"}
	case q <= 0:
		return &DomainError{N: n, Chains: chains, Q: q, Reason: "domain size must be positive"}
	}
	if cells := int64(n) * int64(chains); cells > int64(1)<<40 {
		return &DomainError{N: n, Chains: chains, Q: q, Reason: "lattice exceeds 2^40 cells"}
	}
	return nil
}

// New returns an all-Unset lattice, compact (uint8 cells) when q ≤
// MaxCompactQ and wide ([]int cells) above.
func New(n, chains, q int) (*Lattice, error) {
	if q <= compactLimit {
		return NewCompact(n, chains, q)
	}
	return NewWide(n, chains, q)
}

// NewCompact returns an all-Unset lattice with uint8 cells, failing with a
// *DomainError when q > MaxCompactQ. Unlike New it ignores the test
// override — callers that transmit raw cells as bytes (the LOCAL
// message-passing harness) use it to guarantee the representation.
func NewCompact(n, chains, q int) (*Lattice, error) {
	if err := validate(n, chains, q); err != nil {
		return nil, err
	}
	if q > MaxCompactQ {
		return nil, &DomainError{N: n, Chains: chains, Q: q, Reason: fmt.Sprintf("compact cells hold q ≤ %d", MaxCompactQ)}
	}
	u8 := make([]uint8, n*chains)
	for i := range u8 {
		u8[i] = unset8
	}
	return &Lattice{n: n, chains: chains, q: q, u8: u8}, nil
}

// NewWide returns an all-Unset lattice with int cells regardless of q —
// the fallback representation, constructible directly for tests and for
// alphabets above MaxCompactQ.
func NewWide(n, chains, q int) (*Lattice, error) {
	if err := validate(n, chains, q); err != nil {
		return nil, err
	}
	wide := make([]int, n*chains)
	for i := range wide {
		wide[i] = dist.Unset
	}
	return &Lattice{n: n, chains: chains, q: q, wide: wide}, nil
}

// Pack lays the given configurations (all of length n, symbols Unset or
// 0..q−1) out as the chains of a fresh lattice.
func Pack(n, q int, chains []dist.Config) (*Lattice, error) {
	l, err := New(n, len(chains), q)
	if err != nil {
		return nil, err
	}
	for c, cfg := range chains {
		if err := l.SetChain(c, cfg); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// N returns the number of vertices.
func (l *Lattice) N() int { return l.n }

// Chains returns B, the number of chains.
func (l *Lattice) Chains() int { return l.chains }

// Q returns the alphabet size.
func (l *Lattice) Q() int { return l.q }

// Compact reports whether cells are stored as uint8.
func (l *Lattice) Compact() bool { return l.u8 != nil }

// Raw8 returns the whole compact backing array (vals[v*Chains()+c]), nil
// for wide lattices. The slice aliases lattice state.
func (l *Lattice) Raw8() []uint8 { return l.u8 }

// RawWide returns the whole wide backing array, nil for compact lattices.
// The slice aliases lattice state.
func (l *Lattice) RawWide() []int { return l.wide }

// Row8 returns vertex v's chain row of a compact lattice (nil when wide).
// The slice aliases lattice state.
func (l *Lattice) Row8(v int) []uint8 {
	if l.u8 == nil {
		return nil
	}
	return l.u8[v*l.chains : (v+1)*l.chains]
}

// RowWide returns vertex v's chain row of a wide lattice (nil when
// compact). The slice aliases lattice state.
func (l *Lattice) RowWide(v int) []int {
	if l.wide == nil {
		return nil
	}
	return l.wide[v*l.chains : (v+1)*l.chains]
}

// Get returns the symbol of chain c at vertex v, or dist.Unset.
func (l *Lattice) Get(v, c int) int {
	if l.u8 != nil {
		x := l.u8[v*l.chains+c]
		if x == unset8 {
			return dist.Unset
		}
		return int(x)
	}
	return l.wide[v*l.chains+c]
}

// Set stores symbol x (dist.Unset or 0..q−1, the caller's contract — out of
// range symbols are not diagnosed on this hot path) for chain c at vertex
// v. Storing dist.Unset in a compact cell truncates to the 0xFF sentinel.
func (l *Lattice) Set(v, c, x int) {
	if l.u8 != nil {
		l.u8[v*l.chains+c] = uint8(x)
		return
	}
	l.wide[v*l.chains+c] = x
}

// SetChain copies cfg (length n, symbols Unset or 0..q−1) into chain c.
func (l *Lattice) SetChain(c int, cfg dist.Config) error {
	if len(cfg) != l.n {
		return fmt.Errorf("state: chain %d: configuration has %d vertices, lattice has %d", c, len(cfg), l.n)
	}
	for v, x := range cfg {
		if x != dist.Unset && (x < 0 || x >= l.q) {
			return fmt.Errorf("state: chain %d: symbol %d at vertex %d outside domain 0..%d", c, x, v, l.q-1)
		}
		l.Set(v, c, x)
	}
	return nil
}

// Broadcast copies chain 0 of src into every chain. The lattices must
// agree on vertices and alphabet; the chain counts and cell
// representations may differ, so a one-chain lattice can hold a
// configuration compactly and refill the chains of many engines.
func (l *Lattice) Broadcast(src *Lattice) error {
	if l.n != src.n || l.q != src.q {
		return fmt.Errorf("state: Broadcast shape mismatch: dst n=%d q=%d, src n=%d q=%d", l.n, l.q, src.n, src.q)
	}
	for v := 0; v < l.n; v++ {
		x := src.Get(v, 0)
		if l.u8 != nil {
			row, c8 := l.Row8(v), uint8(x)
			for c := range row {
				row[c] = c8
			}
			continue
		}
		row := l.RowWide(v)
		for c := range row {
			row[c] = x
		}
	}
	return nil
}

// Chain extracts chain c into a fresh configuration.
func (l *Lattice) Chain(c int) dist.Config {
	out := make(dist.Config, l.n)
	l.ReadChain(c, out)
	return out
}

// ReadChain copies chain c into dst (length n), the allocation-free
// unpack.
func (l *Lattice) ReadChain(c int, dst dist.Config) {
	dst = dst[:l.n]
	for v := 0; v < l.n; v++ {
		dst[v] = l.Get(v, c)
	}
}

// CheckAssigned reports the first cell whose value is not an assigned
// symbol of the q-ary domain — Unset or corrupted. It is the once-per-stage
// preflight of the fused sweep kernels: a single O(n·B) scan here lets the
// innermost loops drop their per-cell Valid checks and index tables and
// rows with symbols that are known to be in range.
func (l *Lattice) CheckAssigned() error {
	if l.u8 != nil {
		for i, x := range l.u8 {
			if !Valid(x, l.q) {
				return fmt.Errorf("state: cell (vertex %d, chain %d) is unset or out of range", i/l.chains, i%l.chains)
			}
		}
		return nil
	}
	for i, x := range l.wide {
		if !Valid(x, l.q) {
			return fmt.Errorf("state: cell (vertex %d, chain %d) is unset or out of range", i/l.chains, i%l.chains)
		}
	}
	return nil
}

// CopyFrom overwrites every cell with the corresponding cell of src. The
// lattices must agree on shape (vertices, chains, alphabet); the cell
// representations may differ — it is the handoff primitive between engines
// (the adaptive run driver carries the chains of one dynamic into the
// next), and two engines over one instance always agree on shape even if
// one stores wide cells.
func (l *Lattice) CopyFrom(src *Lattice) error {
	if l.n != src.n || l.chains != src.chains || l.q != src.q {
		return fmt.Errorf("state: CopyFrom shape mismatch: dst n=%d chains=%d q=%d, src n=%d chains=%d q=%d",
			l.n, l.chains, l.q, src.n, src.chains, src.q)
	}
	switch {
	case l.u8 != nil && src.u8 != nil:
		copy(l.u8, src.u8)
	case l.wide != nil && src.wide != nil:
		copy(l.wide, src.wide)
	default:
		for i := 0; i < l.n*l.chains; i++ {
			l.Set(i/l.chains, i%l.chains, src.Get(i/l.chains, i%l.chains))
		}
	}
	return nil
}

// clone returns an independent copy of the lattice.
func (l *Lattice) clone() *Lattice {
	out := *l
	if l.u8 != nil {
		out.u8 = append([]uint8(nil), l.u8...)
	}
	if l.wide != nil {
		out.wide = append([]int(nil), l.wide...)
	}
	return &out
}
