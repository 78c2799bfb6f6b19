package microbench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Params collects the workload sizes of the paper's experiments, with
// the defaults of §IX. Benchmarks and tests shrink them to fit their
// budgets; the shapes are scale-invariant.
type Params struct {
	// ForIters is the for-loop trip count (Figure 4: 1,000).
	ForIters int
	// Tasks is the task count for single/parallel regions (Figures 5–6:
	// 1,000).
	Tasks int
	// NestedOuter and NestedInner are the nested-for trip counts
	// (Figure 7: 1,000 × 1,000; the paper also ran 100 × 100).
	NestedOuter, NestedInner int
	// Parents and Children shape the nested-task tree (Figure 8:
	// 100 × 4).
	Parents, Children int
	// Reps is the per-point repetition count (§V: 500).
	Reps int
}

// PaperParams returns the exact sizes of the paper's evaluation.
func PaperParams() Params {
	return Params{
		ForIters: 1000, Tasks: 1000,
		NestedOuter: 1000, NestedInner: 1000,
		Parents: 100, Children: 4,
		Reps: 500,
	}
}

// QuickParams returns a laptop-scale configuration preserving the
// ratios: the small nested size (100 × 100) the paper also evaluated,
// and fewer reps.
func QuickParams() Params {
	return Params{
		ForIters: 1000, Tasks: 1000,
		NestedOuter: 100, NestedInner: 100,
		Parents: 100, Children: 4,
		Reps: 20,
	}
}

// ThreadCounts returns the sweep axis. The paper sweeps
// 1..72 on a 36-core/72-HT machine; here the axis is the paper's
// progression clipped to max (0 means twice the host's CPUs, exercising
// the beyond-the-cores regime the paper highlights).
func ThreadCounts(max int) []int {
	if max <= 0 {
		max = 2 * runtime.NumCPU()
	}
	paper := []int{1, 2, 4, 8, 16, 24, 32, 36, 40, 48, 56, 64, 72}
	var out []int
	for _, t := range paper {
		if t <= max {
			out = append(out, t)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Point is one measurement on a sweep.
type Point struct {
	// Threads is the x-axis value.
	Threads int
	// S is the measured statistic at that thread count.
	S Stats
}

// Series is one figure line: a system swept over thread counts.
type Series struct {
	// System is the legend label.
	System string
	// Points are the measurements, ascending in Threads.
	Points []Point
}

// Pattern selects which microbenchmark a sweep runs; the integer values
// match the paper's figure numbers.
type Pattern int

// The sweepable patterns.
const (
	PatternCreate     Pattern = 2
	PatternJoin       Pattern = 3
	PatternForLoop    Pattern = 4
	PatternTaskSingle Pattern = 5
	PatternTaskPar    Pattern = 6
	PatternNestedFor  Pattern = 7
	PatternNestedTask Pattern = 8
)

// String names the pattern after its figure.
func (p Pattern) String() string {
	switch p {
	case PatternCreate:
		return "fig2-create"
	case PatternJoin:
		return "fig3-join"
	case PatternForLoop:
		return "fig4-forloop"
	case PatternTaskSingle:
		return "fig5-task-single"
	case PatternTaskPar:
		return "fig6-task-parallel"
	case PatternNestedFor:
		return "fig7-nested-for"
	case PatternNestedTask:
		return "fig8-nested-task"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// RunPoint measures one (system, pattern, threads) cell. The system must
// already be set up for the thread count.
func RunPoint(s System, p Pattern, prm Params) Stats {
	switch p {
	case PatternCreate:
		c, _ := Measure2(prm.Reps, s.CreateJoin)
		return c
	case PatternJoin:
		_, j := Measure2(prm.Reps, s.CreateJoin)
		return j
	case PatternForLoop:
		return Measure(prm.Reps, func() time.Duration { return s.ForLoop(prm.ForIters) })
	case PatternTaskSingle:
		return Measure(prm.Reps, func() time.Duration { return s.TaskSingle(prm.Tasks) })
	case PatternTaskPar:
		return Measure(prm.Reps, func() time.Duration { return s.TaskParallel(prm.Tasks) })
	case PatternNestedFor:
		return Measure(prm.Reps, func() time.Duration { return s.NestedFor(prm.NestedOuter, prm.NestedInner) })
	case PatternNestedTask:
		return Measure(prm.Reps, func() time.Duration { return s.NestedTask(prm.Parents, prm.Children) })
	default:
		panic("microbench: unknown pattern")
	}
}

// Sweep runs one system over the thread axis for one pattern.
func Sweep(spec Spec, p Pattern, threads []int, prm Params) Series {
	se := Series{System: spec.Name}
	for _, n := range threads {
		s := spec.Make()
		s.Setup(n)
		st := RunPoint(s, p, prm)
		s.Teardown()
		se.Points = append(se.Points, Point{Threads: n, S: st})
	}
	return se
}

// RenderTable formats a set of series as the textual equivalent of a
// figure: rows are thread counts, columns are systems, cells are mean
// times.
func RenderTable(title string, series []Series) string {
	if len(series) == 0 {
		return title + ": (no data)\n"
	}
	// Collect the x axis from the union of points.
	axisSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			axisSet[p.Threads] = true
		}
	}
	axis := make([]int, 0, len(axisSet))
	for t := range axisSet {
		axis = append(axis, t)
	}
	sort.Ints(axis)

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s", "threads")
	for _, s := range series {
		fmt.Fprintf(&b, "%20s", s.System)
	}
	b.WriteByte('\n')
	for _, t := range axis {
		fmt.Fprintf(&b, "%-9d", t)
		for _, s := range series {
			var cell string
			for _, p := range s.Points {
				if p.Threads == t {
					cell = fmtDuration(p.S.Mean)
					break
				}
			}
			fmt.Fprintf(&b, "%20s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fmtDuration renders with three significant figures like the paper's
// log axes.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
