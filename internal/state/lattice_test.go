package state

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dist"
)

func TestNewPicksRepresentation(t *testing.T) {
	small, err := New(4, 3, 5)
	if err != nil || !small.Compact() {
		t.Fatalf("New(4,3,5) = %v, %v; want compact", small, err)
	}
	big, err := New(4, 3, MaxCompactQ+1)
	if err != nil || big.Compact() {
		t.Fatalf("New with q=%d = %v, %v; want wide", MaxCompactQ+1, big, err)
	}
	edge, err := New(4, 1, MaxCompactQ)
	if err != nil || !edge.Compact() {
		t.Fatalf("New with q=%d = %v, %v; want compact", MaxCompactQ, edge, err)
	}
}

func TestDomainErrors(t *testing.T) {
	cases := []struct{ n, chains, q int }{
		{-1, 1, 2}, {4, 0, 2}, {4, 1, 0}, {4, 1, -3},
	}
	for _, c := range cases {
		_, err := New(c.n, c.chains, c.q)
		var de *DomainError
		if !errors.As(err, &de) {
			t.Errorf("New(%d,%d,%d) error %v, want *DomainError", c.n, c.chains, c.q, err)
		}
	}
	var de *DomainError
	if _, err := NewCompact(4, 1, MaxCompactQ+1); !errors.As(err, &de) {
		t.Errorf("NewCompact over the limit: %v, want *DomainError", de)
	}
	if _, err := NewWide(4, 1, MaxCompactQ+1); err != nil {
		t.Errorf("NewWide over the compact limit must work: %v", err)
	}
}

func TestSetGetRoundtrip(t *testing.T) {
	for _, mk := range []func(n, chains, q int) (*Lattice, error){NewCompact, NewWide} {
		l, err := mk(3, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 3; v++ {
			for c := 0; c < 2; c++ {
				if got := l.Get(v, c); got != dist.Unset {
					t.Fatalf("fresh cell (%d,%d) = %d, want Unset", v, c, got)
				}
			}
		}
		l.Set(1, 1, 6)
		l.Set(2, 0, 0)
		if l.Get(1, 1) != 6 || l.Get(2, 0) != 0 || l.Get(1, 0) != dist.Unset {
			t.Fatalf("roundtrip failed: %v %v %v", l.Get(1, 1), l.Get(2, 0), l.Get(1, 0))
		}
		l.Set(1, 1, dist.Unset)
		if l.Get(1, 1) != dist.Unset {
			t.Fatalf("unset did not stick: %d", l.Get(1, 1))
		}
	}
}

func TestChainPackUnpack(t *testing.T) {
	chains := []dist.Config{{0, 1, 2}, {2, 0, 1}}
	l, err := Pack(3, 3, chains)
	if err != nil {
		t.Fatal(err)
	}
	for c := range chains {
		if got := l.Chain(c); !got.Equal(chains[c]) {
			t.Errorf("chain %d roundtrips to %v", c, got)
		}
	}
	dst := dist.NewConfig(3)
	l.ReadChain(1, dst)
	if !dst.Equal(chains[1]) {
		t.Errorf("ReadChain = %v", dst)
	}
	if _, err := Pack(3, 3, []dist.Config{{0, 1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pack(3, 3, []dist.Config{{0, 1, 3}}); err == nil {
		t.Error("out-of-domain symbol accepted")
	}
	if err := l.SetChain(0, dist.Config{0, dist.Unset, 2}); err != nil {
		t.Fatal(err)
	}
	if got := l.Get(1, 0); got != dist.Unset {
		t.Errorf("SetChain kept Unset as %d", got)
	}
}

func TestBroadcastAndClone(t *testing.T) {
	for _, mk := range []func(n, chains, q int) (*Lattice, error){NewCompact, NewWide} {
		l, err := mk(3, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		// The source's cells may be compact or wide, whatever l's are.
		for i, smk := range []func(n, chains, q int) (*Lattice, error){NewCompact, NewWide} {
			cfg := dist.Config{4, i, 2}
			src, err := smk(3, 1, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.SetChain(0, cfg); err != nil {
				t.Fatal(err)
			}
			if err := l.Broadcast(src); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 4; c++ {
				if got := l.Chain(c); !got.Equal(cfg) {
					t.Fatalf("chain %d = %v after broadcast of %v", c, got, cfg)
				}
			}
		}
		if err := l.Broadcast(&Lattice{n: 3, chains: 1, q: 4, u8: make([]uint8, 3)}); err == nil {
			t.Error("Broadcast accepted a source over another alphabet")
		}
		cl := l.clone()
		cl.Set(0, 0, 1)
		if l.Get(0, 0) != 4 {
			t.Error("clone aliases the original")
		}
	}
}

func TestValid(t *testing.T) {
	if !Valid(uint8(3), 5) || Valid(uint8(5), 5) || Valid(uint8(unset8), 255) {
		t.Error("compact Valid wrong")
	}
	if !Valid(4, 5) || Valid(5, 5) || Valid(dist.Unset, 5) {
		t.Error("wide Valid wrong")
	}
}

func TestCompactLimitHook(t *testing.T) {
	restore := SetCompactLimitForTest(0)
	l, err := New(2, 1, 2)
	restore()
	if err != nil || l.Compact() {
		t.Fatalf("forced-wide New = %v, %v", l, err)
	}
	l2, err := New(2, 1, 2)
	if err != nil || !l2.Compact() {
		t.Fatalf("restore failed: %v, %v", l2, err)
	}
}

func TestCheckAssigned(t *testing.T) {
	for _, compact := range []bool{true, false} {
		limit := MaxCompactQ
		if !compact {
			limit = 0
		}
		restore := SetCompactLimitForTest(limit)
		l, err := New(3, 2, 4)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if l.Compact() != compact {
			t.Fatalf("representation: compact=%v want %v", l.Compact(), compact)
		}
		if err := l.CheckAssigned(); err == nil {
			t.Error("all-Unset lattice passed CheckAssigned")
		}
		for v := 0; v < 3; v++ {
			for c := 0; c < 2; c++ {
				l.Set(v, c, (v+c)%4)
			}
		}
		if err := l.CheckAssigned(); err != nil {
			t.Errorf("fully assigned lattice failed: %v", err)
		}
		l.Set(2, 1, dist.Unset)
		err = l.CheckAssigned()
		if err == nil {
			t.Fatal("unset cell passed CheckAssigned")
		}
		if want := "vertex 2, chain 1"; !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
