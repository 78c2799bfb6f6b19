// Command lwtinfo renders the paper's semantic analysis: Table I (the
// execution and scheduling functionality of each LWT library) and
// Table II (the reduced function set the microbenchmarks need), plus the
// live capability report of every registered unified-API backend — at
// the v2 surface, including the extended columns: placement, scheduler
// policies, synchronization mechanism and yield-to.
//
// Usage:
//
//	lwtinfo [-table 1|2|all] [-backends]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/semantics"
)

func main() {
	table := flag.String("table", "all", "which table to print: 1, 2 or all")
	backends := flag.Bool("backends", false, "also print live backend capabilities")
	flag.Parse()

	switch *table {
	case "1":
		fmt.Println("Table I: execution and scheduling functionality of the LWT libraries")
		fmt.Print(semantics.RenderTableI())
	case "2":
		fmt.Println("Table II: most used functions in the microbenchmark implementations")
		fmt.Print(semantics.RenderTableII())
	case "all":
		fmt.Println("Table I: execution and scheduling functionality of the LWT libraries")
		fmt.Print(semantics.RenderTableI())
		fmt.Println()
		fmt.Println("Table II: most used functions in the microbenchmark implementations")
		fmt.Print(semantics.RenderTableII())
	default:
		fmt.Fprintf(os.Stderr, "lwtinfo: unknown table %q\n", *table)
		os.Exit(2)
	}

	if *backends {
		fmt.Println()
		fmt.Print(renderBackends())
	}
}

// aioResumeRule is the per-backend half of the AsyncIO column: where a
// work unit parked on the async-I/O reactor continues when the reactor
// resumes it.
func aioResumeRule(name string) string {
	switch name {
	case "argobots":
		return "issuing execution stream's private pool (placement preserved)"
	case "argobots-shared":
		return "the shared pool"
	case "qthreads", "qthreads-pernode":
		return "issuing shepherd's pool (placement preserved)"
	case "massivethreads", "massivethreads-helpfirst":
		return "shared injection queue (any worker may pick it up, as a steal would)"
	case "converse":
		return "issuing processor's queue (placement preserved)"
	case "go":
		return "the shared global queue"
	default:
		return "backend-defined"
	}
}

// renderBackends renders the live capability report — the table, the
// per-backend async-I/O resume rules, and the degradation rules —
// separated from main so a unit test can pin the output.
func renderBackends() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Registered unified-API backends (live capabilities, v2 surface):")
	fmt.Fprintf(&b, "  %-26s %-6s %-5s %-8s %-8s %-9s %-9s %-5s %-9s %-6s %s\n",
		"backend", "levels", "units", "tasklets", "yield-to", "placement", "sync", "aio", "cancel", "execs", "schedulers")
	names := core.Backends()
	for _, name := range names {
		r := core.MustOpen(core.Config{Backend: name, Executors: 2})
		c := r.Caps()
		execs := r.NumExecutors()
		r.Finalize()
		// Cancellation rides the async-I/O reactor: where parks exist,
		// a cancelled context wakes the parked work unit early
		// (park-wake); without parks the wait loop polls the cancel
		// channel between yields.
		cancel := "yield-poll"
		if c.AsyncIO {
			cancel = "park-wake"
		}
		fmt.Fprintf(&b, "  %-26s %-6d %-5d %-8v %-8v %-9v %-9s %-5v %-9s %-6d %s\n",
			name, c.HierarchyLevels, c.WorkUnitTypes, c.Tasklets, c.YieldTo,
			c.Placement, c.SyncMechanism, c.AsyncIO, cancel, execs, strings.Join(c.Schedulers, ","))
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "Async-I/O resume rules (where a work unit parked on the reactor continues):")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-26s %s\n", name, aioResumeRule(name))
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "Degradation rules: a Config.Scheduler outside the backend's list")
	fmt.Fprintln(&b, "falls back to the default policy — recorded by Open (Degradations),")
	fmt.Fprintln(&b, "or an error under Config.Strict. Per-call fallbacks follow the")
	fmt.Fprintln(&b, "capability flags: ULTCreateTo without placement creates locally;")
	fmt.Fprintln(&b, "YieldTo without yield-to support degrades to Yield. The async-I/O")
	fmt.Fprintln(&b, "waits (Sleep, Deadline, AwaitIO, ReadIO, WriteIO) park the work unit")
	fmt.Fprintln(&b, "off its executor where the aio column is true, yield-poll on a")
	fmt.Fprintln(&b, "context without park support, and block plainly with no context.")
	fmt.Fprintln(&b, "Cancellation follows the cancel column: a Ctx whose deadline passes")
	fmt.Fprintln(&b, "or whose submission context is cancelled fires core.Canceled(ctx);")
	fmt.Fprintln(&b, "park-wake backends wake any parked Sleep/AwaitIO early with")
	fmt.Fprintln(&b, "ErrCanceled, yield-poll backends observe it between polls. Handlers")
	fmt.Fprintln(&b, "that never wait must check the channel themselves — cancellation is")
	fmt.Fprintln(&b, "cooperative everywhere.")
	return b.String()
}
