package main

import (
	"strings"
	"testing"

	"xtreesim/internal/buildinfo"
)

func TestVersionString(t *testing.T) {
	v := buildinfo.Version()
	if !strings.HasPrefix(v, "xtreesim") || !strings.Contains(v, "go1") {
		t.Errorf("version %q", v)
	}
}
