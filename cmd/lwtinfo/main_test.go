package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRenderBackendsPinsCapabilityTable pins the capability report's
// shape: the aio column is present and true for every backend, each
// backend has an async-I/O resume rule, and the placement-preserving
// backends say so in their rule.
func TestRenderBackendsPinsCapabilityTable(t *testing.T) {
	out := renderBackends()
	header := "backend"
	for _, col := range []string{"levels", "units", "tasklets", "yield-to", "placement", "sync", "aio", "cancel", "execs", "schedulers"} {
		header += " " + col
	}
	var headerLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "backend") && strings.Contains(line, "schedulers") {
			headerLine = line
			break
		}
	}
	if headerLine == "" {
		t.Fatalf("no header line in output:\n%s", out)
	}
	if got := strings.Join(strings.Fields(headerLine), " "); got != header {
		t.Fatalf("header = %q, want %q", got, header)
	}
	table, _, ok := strings.Cut(out, "Async-I/O resume rules")
	if !ok {
		t.Fatalf("resume-rules block missing")
	}
	for _, name := range core.Backends() {
		found := false
		for _, line := range strings.Split(table, "\n") {
			fields := strings.Fields(line)
			if len(fields) > 0 && fields[0] == name && len(fields) >= 11 {
				found = true
				// Column 8 (0-indexed 7) is aio; every backend parks.
				if fields[7] != "true" {
					t.Errorf("%s: aio column = %q, want true", name, fields[7])
				}
				// Column 9 (0-indexed 8) is cancel: parking backends
				// wake cancelled waits early.
				if fields[8] != "park-wake" {
					t.Errorf("%s: cancel column = %q, want park-wake", name, fields[8])
				}
			}
		}
		if !found {
			t.Errorf("no capability row for backend %s", name)
		}
		if rule := aioResumeRule(name); rule == "backend-defined" {
			t.Errorf("%s: no async-I/O resume rule", name)
		}
	}
	for name, wantPreserved := range map[string]bool{
		"argobots":       true,
		"qthreads":       true,
		"converse":       true,
		"massivethreads": false,
		"go":             false,
	} {
		got := strings.Contains(aioResumeRule(name), "placement preserved")
		if got != wantPreserved {
			t.Errorf("%s resume rule %q: placement-preserved = %v, want %v",
				name, aioResumeRule(name), got, wantPreserved)
		}
	}
}
