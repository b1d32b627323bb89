package core_test

// Transaction and lock semantics are exercised end-to-end (with real
// engines) in internal/enginetest. This file covers pure core-level
// behaviour that needs no engine: option defaults and the MergeKind
// stringer, keeping core's public contract pinned.

import (
	"testing"

	"decibel/internal/core"
)

func TestMergeKindString(t *testing.T) {
	if core.TwoWay.String() != "two-way" || core.ThreeWay.String() != "three-way" {
		t.Fatalf("stringer wrong: %q %q", core.TwoWay, core.ThreeWay)
	}
}

func TestOpenRejectsNilFactory(t *testing.T) {
	if _, err := core.Open(t.TempDir(), "hybrid", nil, core.Options{}); err == nil {
		t.Fatal("nil engine lookup accepted")
	}
}
