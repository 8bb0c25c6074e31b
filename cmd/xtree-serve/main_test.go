package main

import (
	"strings"
	"testing"

	"xtreesim/internal/buildinfo"
)

// TestSmoke runs the full -smoke self-check in-process: the same gate
// `make serve-smoke` and the CI serve job use.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke boots a server; skipped in -short")
	}
	if err := runSmoke(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadgenInProcess(t *testing.T) {
	if err := runLoadgen("", 2, 10, 255, 2, true, 0, "", 0); err != nil {
		t.Fatal(err)
	}
}

// TestScaleRunPath exercises the measured half of -scale-smoke (boot,
// drive, throughput) at both concurrencies regardless of CPU count; the
// ratio gate itself only runs on multi-core machines.
func TestScaleRunPath(t *testing.T) {
	for _, conc := range []int{1, 8} {
		thpt, err := scaleRun(conc, 24, 255, 2)
		if err != nil {
			t.Fatalf("c=%d: %v", conc, err)
		}
		if thpt <= 0 {
			t.Fatalf("c=%d: throughput %f", conc, thpt)
		}
	}
}

func TestVersionString(t *testing.T) {
	v := buildinfo.Version()
	if !strings.HasPrefix(v, "xtreesim") || !strings.Contains(v, "go1") {
		t.Errorf("version %q", v)
	}
}
