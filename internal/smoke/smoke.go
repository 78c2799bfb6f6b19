// Package smoke is the harness behind cmd/drill, the end-to-end drills
// of the serving stack: it starts daemons with their output archived to
// a log directory and waits for the address they announce and for
// readiness, classifies each request as lost, ok or an explicit error,
// reads Prometheus samples and (from /proc, on Linux) a process's CPU
// time, checks that every process drains cleanly on SIGTERM, and
// tallies failed checks so that one run reports as many failures as it
// can. The daemons' flags are the drills' business, not this package's.
package smoke

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/prom"
)

// listenRe matches the line a daemon prints once bound, with the
// address it actually got (the drills pass :0 for an ephemeral port).
var listenRe = regexp.MustCompile(`listening on (\S+)`)

// Drill is one smoke run: the directory its children log into and the
// checks that failed. Failf may be called from any goroutine.
type Drill struct {
	// LogDir receives one <name>.log per started process.
	LogDir string

	failures atomic.Int32
}

// Proc is one supervised child process.
type Proc struct {
	Name string
	Cmd  *exec.Cmd
	// Addr is the address the process announced.
	Addr     string
	waitDone chan struct{} // closed once the process is reaped
}

// Start launches bin, tees its output to LogDir/<name>.log, and waits
// up to within for its "listening on <addr>" line. The child gets
// procAttr: on Linux it dies with the drill.
func (d *Drill) Start(name string, within time.Duration, bin string, args ...string) (*Proc, error) {
	logFile, err := os.Create(filepath.Join(d.LogDir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &Proc{Name: name, Cmd: exec.Command(bin, args...), waitDone: make(chan struct{})}
	p.Cmd.SysProcAttr = procAttr()
	out, err := p.Cmd.StdoutPipe()
	if err == nil {
		p.Cmd.Stderr = p.Cmd.Stdout
		err = p.Cmd.Start()
	}
	if err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addr := make(chan string, 1) // one send: the first address seen
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if !announced {
				if m := listenRe.FindStringSubmatch(line); m != nil {
					announced = true
					addr <- m[1]
				}
			}
		}
		_, _ = io.Copy(logFile, out) // a line past the scanner's limit: keep the pipe drained
		logFile.Close()
		// The pipe is at EOF, so the process has exited or is about to:
		// reap it here, the one place that does.
		_ = p.Cmd.Wait() // the exit status is read from Cmd.ProcessState
		close(p.waitDone)
	}()
	select {
	case p.Addr = <-addr:
		return p, nil
	case <-p.waitDone:
		return nil, fmt.Errorf("%s exited before announcing its address (see %s.log)", name, name)
	case <-time.After(within):
		_ = p.Cmd.Process.Kill()
		return nil, fmt.Errorf("%s did not announce its address within %v", name, within)
	}
}

// Boot is Start that ends the drill on failure.
func (d *Drill) Boot(name string, within time.Duration, bin string, args ...string) *Proc {
	p, err := d.Start(name, within, bin, args...)
	if err != nil {
		d.Fatalf("%v", err)
	}
	log.Printf("%s listening on %s", name, p.Addr)
	return p
}

// WaitReady polls base/readyz for up to within and ends the drill if
// it never answers 200.
func (d *Drill) WaitReady(c *http.Client, base string, within time.Duration) {
	if !Poll(within, 100*time.Millisecond, func() bool { return Get(c, base+"/readyz", nil).Status == http.StatusOK }) {
		d.Fatalf("%s not ready within %v", base, within)
	}
}

// Poll calls cond every interval until it returns true or within has
// passed, and reports whether it returned true.
func Poll(within, interval time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(within); !cond(); time.Sleep(interval) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// SignalAndWait sends sig and waits for the exit, returning the exit
// code; a process still running after timeout is killed.
func (p *Proc) SignalAndWait(sig syscall.Signal, timeout time.Duration) (int, error) {
	_ = p.Cmd.Process.Signal(sig)
	select {
	case <-p.waitDone:
		return p.Cmd.ProcessState.ExitCode(), nil
	case <-time.After(timeout):
		_ = p.Cmd.Process.Kill()
		return -1, fmt.Errorf("%s did not exit within %v of %v", p.Name, timeout, sig)
	}
}

// Drain SIGTERMs each process and checks the drain contract: exit 0
// within the given time, "drained cleanly" in its log, and no
// "dropped future".
func (d *Drill) Drain(within time.Duration, procs ...*Proc) {
	for _, p := range procs {
		if code, err := p.SignalAndWait(syscall.SIGTERM, within); err != nil || code != 0 {
			d.Failf("%s drain: exit=%d err=%v", p.Name, code, err)
			continue
		}
		logText := d.Log(p.Name)
		if !strings.Contains(logText, "drained cleanly") {
			d.Failf("%s log missing 'drained cleanly'", p.Name)
		}
		if strings.Contains(strings.ToLower(logText), "dropped future") {
			d.Failf("%s log reports a dropped future", p.Name)
		}
	}
}

// Failf records a failed check and logs it; the drill carries on.
func (d *Drill) Failf(format string, args ...any) {
	d.failures.Add(1)
	log.Printf("FAIL: "+format, args...)
}

// Failed returns the number of failed checks so far.
func (d *Drill) Failed() int { return int(d.failures.Load()) }

// Fatalf logs a failure the drill cannot continue past and exits 1;
// on Linux the started processes die with it.
func (d *Drill) Fatalf(format string, args ...any) {
	log.Fatalf("FATAL: "+format, args...)
}

// Log returns the named child's archived log ("" if unreadable).
func (d *Drill) Log(name string) string {
	b, _ := os.ReadFile(filepath.Join(d.LogDir, name+".log"))
	return string(b)
}

// Reply is one request's outcome. A request that got no response
// within the client's timeout is lost: Status is 0 and Err is set.
type Reply struct {
	Status  int
	Worker  string // X-Lwt-Worker: which worker the gate proxied to
	Header  http.Header
	Body    []byte
	Elapsed time.Duration
	Err     error // transport error, or decoding a 200 body failed
}

// Get issues a GET through c and, when out is non-nil and the status
// is 200, decodes the JSON body into out. The client's timeout is the
// drill's lost-request detector.
func Get(c *http.Client, url string, out any) Reply {
	t0 := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return Reply{Elapsed: time.Since(t0), Err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r := Reply{Status: resp.StatusCode, Worker: resp.Header.Get("X-Lwt-Worker"), Header: resp.Header,
		Body: body, Elapsed: time.Since(t0), Err: err}
	if r.Err == nil && out != nil && r.Status == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			r.Err = fmt.Errorf("decode %s: %w (body %q)", url, err, body)
		}
	}
	return r
}

// Tally counts request outcomes from any number of goroutines.
type Tally struct {
	Sent, OK, Errors, Lost atomic.Int64
	MaxElapsed             atomic.Int64 // ns, the slowest reply
}

// Add counts r as lost, ok (200) or an explicit error (any other
// status), and tracks the slowest reply.
func (t *Tally) Add(r Reply) {
	t.Sent.Add(1)
	switch {
	case r.Status == 0:
		t.Lost.Add(1)
	case r.Status == http.StatusOK:
		t.OK.Add(1)
	default:
		t.Errors.Add(1)
	}
	for {
		old := t.MaxElapsed.Load()
		if int64(r.Elapsed) <= old || t.MaxElapsed.CompareAndSwap(old, int64(r.Elapsed)) {
			break
		}
	}
}

// String renders the counts for a log line.
func (t *Tally) String() string {
	return fmt.Sprintf("sent=%d ok=%d explicit-errors=%d lost=%d", t.Sent.Load(), t.OK.Load(), t.Errors.Load(), t.Lost.Load())
}

// Load runs fn(g, i) in a loop on each of n goroutines, g the
// goroutine's index and i its call count, until ctx is done, and
// returns once all have stopped.
func Load(ctx context.Context, n int, fn func(g, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				fn(g, i)
			}
		}()
	}
	wg.Wait()
}

// Sample scrapes base/metrics and returns the first sample of family
// with label worker=worker (any labels when worker is ""), or -1 when
// the scrape fails or no sample matches.
func Sample(c *http.Client, base, family, worker string) float64 {
	var labels map[string]string
	if worker != "" {
		labels = map[string]string{"worker": worker}
	}
	r := Get(c, base+"/metrics", nil)
	if v, ok := prom.Value(string(r.Body), family, labels); ok && r.Status == http.StatusOK {
		return v
	}
	return -1
}

// Sum adds up every sample of family on an exposition page, across all
// label sets.
func Sum(page, family string) float64 {
	var s float64
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if i := strings.LastIndexByte(rest, '}'); i >= 0 {
			rest = rest[i+1:]
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				s += v
			}
		}
	}
	return s
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// CPUTime returns the user+system CPU time process pid has used.
func CPUTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and
// may itself contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * (time.Second / clockTick), nil
}
