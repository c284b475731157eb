package main

import (
	"strings"
	"testing"
)

func TestRunQuickFiltered(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	if err := run([]string{"-quick", "-seed", "2", "-only", "E3,E5"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownOnly: an -only ID that names no experiment is a
// flag error before anything runs, in any position of the list.
func TestRunRejectsUnknownOnly(t *testing.T) {
	for _, only := range []string{"E99", "E3,E99", "E3,,E5", "e4b,nope"} {
		err := run([]string{"-quick", "-only", only})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-only %q: error %v, want an unknown-experiment flag error", only, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nosuchflag"}); err == nil {
		t.Error("bad flag accepted")
	}
}
