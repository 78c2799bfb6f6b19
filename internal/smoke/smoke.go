// Package smoke is the process harness the end-to-end drills share
// (cmd/clustersmoke, cmd/chaossmoke): it starts daemons with their output
// archived to a log directory, reads the address each one announces,
// signals them, and tallies failed checks so that one run reports as
// many failures as it can.
package smoke

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// listenRe matches the line a daemon prints once bound, with the
// address it actually got (the drills pass :0 for an ephemeral port).
var listenRe = regexp.MustCompile(`listening on (\S+)`)

// Drill is one smoke run: the directory its children log into, the
// children it started, and the checks that failed. Start and Fatalf
// belong to the drill's main goroutine; Failf may be called from any.
type Drill struct {
	// LogDir receives one <name>.log per started process.
	LogDir string

	procs    []*Proc
	failures atomic.Int32
}

// Proc is one supervised child process.
type Proc struct {
	Name string
	Cmd  *exec.Cmd
	addr chan string // the announced listen address, sent once

	mu       sync.Mutex
	exited   bool
	exitCode int
	waitDone chan struct{}
}

// Start launches bin, tees its output to LogDir/<name>.log, and watches
// for the "listening on <addr>" line.
func (d *Drill) Start(name, bin string, args ...string) (*Proc, error) {
	logFile, err := os.Create(filepath.Join(d.LogDir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &Proc{Name: name, Cmd: exec.Command(bin, args...), addr: make(chan string, 1), waitDone: make(chan struct{})}
	pr, pw := io.Pipe()
	p.Cmd.Stdout = pw
	p.Cmd.Stderr = pw
	go func() {
		defer logFile.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if !announced {
				if m := listenRe.FindStringSubmatch(line); m != nil {
					announced = true
					p.addr <- m[1]
				}
			}
		}
	}()
	if err := p.Cmd.Start(); err != nil {
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		err := p.Cmd.Wait()
		pw.Close()
		p.mu.Lock()
		p.exited = true
		p.exitCode = 0
		if err != nil {
			p.exitCode = -1
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				p.exitCode = ee.ExitCode()
			}
		}
		p.mu.Unlock()
		close(p.waitDone)
	}()
	d.procs = append(d.procs, p)
	return p, nil
}

// WaitAddr blocks for the announced listen address.
func (p *Proc) WaitAddr(timeout time.Duration) (string, error) {
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.waitDone:
		return "", fmt.Errorf("%s exited before announcing its address (see %s.log)", p.Name, p.Name)
	case <-time.After(timeout):
		return "", fmt.Errorf("%s did not announce its address within %v", p.Name, timeout)
	}
}

// SignalAndWait sends sig and waits for the exit, returning the exit
// code; a process still running after timeout is killed.
func (p *Proc) SignalAndWait(sig syscall.Signal, timeout time.Duration) (int, error) {
	_ = p.Cmd.Process.Signal(sig)
	select {
	case <-p.waitDone:
	case <-time.After(timeout):
		_ = p.Cmd.Process.Kill()
		return -1, fmt.Errorf("%s did not exit within %v of %v", p.Name, timeout, sig)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exitCode, nil
}

// Kill stops the process if it is still running.
func (p *Proc) Kill() {
	p.mu.Lock()
	exited := p.exited
	p.mu.Unlock()
	if !exited && p.Cmd.Process != nil {
		_ = p.Cmd.Process.Kill()
	}
}

// Failf records a failed check and logs it; the drill carries on.
func (d *Drill) Failf(format string, args ...any) {
	d.failures.Add(1)
	log.Printf("FAIL: "+format, args...)
}

// Failed returns the number of failed checks so far.
func (d *Drill) Failed() int { return int(d.failures.Load()) }

// Fatalf logs a failure the drill cannot continue past, kills every
// process it started, and exits 1.
func (d *Drill) Fatalf(format string, args ...any) {
	log.Printf("FATAL: "+format, args...)
	for _, p := range d.procs {
		p.Kill()
	}
	os.Exit(1)
}

// LogContains reports whether the named child's archived log contains
// substr.
func (d *Drill) LogContains(name, substr string) bool {
	b, err := os.ReadFile(filepath.Join(d.LogDir, name+".log"))
	return err == nil && strings.Contains(string(b), substr)
}
