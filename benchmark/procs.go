package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonNames are the server binaries this benchmark starts. A leaked
// one keeps spinning a core on its idle executors and silently slows
// every later number, so the benchmark refuses to start beside one.
var daemonNames = []string{"lwtserved", "lwtgate"}

// strayDaemons lists live processes whose command name is one of
// daemonNames, as "pid comm" strings. A zombie is not live: it spins
// nothing, and a killed run's servers stay zombies until init reaps
// them.
func strayDaemons() []string {
	var out []string
	ents, _ := os.ReadDir("/proc") // no /proc: nothing to find, and nothing to measure CPU with either
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited between ReadDir and here
		}
		comm, state := parseStatComm(string(b))
		if state == "Z" || state == "X" {
			continue
		}
		for _, d := range daemonNames {
			if comm == d {
				out = append(out, e.Name()+" "+comm)
			}
		}
	}
	return out
}

// parseStatComm extracts the command name and the state letter from
// the contents of /proc/<pid>/stat: "pid (comm) state ...".
func parseStatComm(stat string) (comm, state string) {
	i, j := strings.IndexByte(stat, '('), strings.LastIndexByte(stat, ')')
	if i < 0 || j < i {
		return "", ""
	}
	if f := strings.Fields(stat[j+1:]); len(f) > 0 {
		state = f[0]
	}
	return stat[i+1 : j], state
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

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
	stm, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+stm) * (time.Second / clockTick), nil
}

// parseVmHWM extracts the peak resident set size, in bytes, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}

func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func pidPeakRSS(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// live holds what a signal must take down before the process exits:
// every daemon started and not yet reaped, and the run's scratch
// directory.
var live = struct {
	sync.Mutex
	m       map[*daemon]struct{}
	scratch string
}{m: map[*daemon]struct{}{}}

// abort kills every live daemon's process group without waiting and
// removes the scratch directory.
func abort() {
	live.Lock()
	defer live.Unlock()
	for d := range live.m {
		_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // exited but not yet reaped is fine
	}
	if live.scratch != "" {
		os.RemoveAll(live.scratch)
	}
}

// daemon is one running server process.
type daemon struct {
	name string // lwtserved or lwtgate
	addr string // host:port parsed from its "listening on" line
	cmd  *exec.Cmd

	mu      sync.Mutex
	log     bytes.Buffer  // everything it wrote to stderr
	exited  chan struct{} // closed once the process is reaped
	exitErr error         // cmd.Wait's result, valid after exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// startDaemon runs bin with args in its own process group and waits
// for its "listening on <addr>" line. The child dies with this process
// (Pdeathsig) even if the benchmark is killed outright.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{name: filepath.Base(bin), cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", d.name, err)
	}
	live.Lock()
	live.m[d] = struct{}{}
	live.Unlock()
	listening := make(chan string, 1) // one send: the first address seen
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line)
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if sent {
				continue
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					listening <- f[0]
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a line past the scanner's limit: keep the pipe drained
		// The pipe is at EOF, so the process has exited or is about to:
		// reap it here, the one place that does.
		d.exitErr = d.cmd.Wait()
		live.Lock()
		delete(live.m, d)
		live.Unlock()
		close(d.exited)
	}()
	select {
	case d.addr = <-listening:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening:\n%s", d.name, d.logText())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not announce its address within 20s:\n%s", d.name, d.logText())
	}
}

// kill ends the daemon's whole process group and waits until it is
// reaped. On a daemon already reaped it does nothing.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // exited but not yet reaped is fine
	<-d.exited
}

// stop asks the daemon to drain (SIGTERM), waits for it, and reports
// whether it exited 0 after logging "drained cleanly". A daemon that
// does not exit in time is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("%s: SIGTERM: %w", d.name, err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return fmt.Errorf("%s: still running 15s after SIGTERM; killed", d.name)
	}
	if d.exitErr != nil {
		return fmt.Errorf("%s: exit after SIGTERM: %w\n%s", d.name, d.exitErr, d.logText())
	}
	if !strings.Contains(d.logText(), "drained cleanly") {
		return fmt.Errorf("%s: exited without logging a clean drain:\n%s", d.name, d.logText())
	}
	return nil
}
