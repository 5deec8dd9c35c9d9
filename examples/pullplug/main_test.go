package main

import (
	"strings"
	"testing"
)

// The demo prints its verdict only when reconfiguration took under the
// paper's 200 ms and packets sent after the plug arrived.
func TestPullPlugSurvives(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "demo verdict: service survived the plug") {
		t.Fatalf("no survival verdict:\n%s", out.String())
	}
}
