package main

import (
	"strings"
	"testing"

	"xtreesim/internal/buildinfo"
)

func TestLoadgenInProcess(t *testing.T) {
	if err := runLoadgen("", 2, 10, 255, 2, true, 0, "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestVersionString(t *testing.T) {
	v := buildinfo.Version()
	if !strings.HasPrefix(v, "xtreesim") || !strings.Contains(v, "go1") {
		t.Errorf("version %q", v)
	}
}
