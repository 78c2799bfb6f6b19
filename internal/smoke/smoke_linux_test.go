package smoke

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonDiesWithDrill SIGKILLs a drill that has started a daemon:
// within 2 s the daemon must be gone, or a zombie that nothing reaps.
// Without Pdeathsig it would keep running, reparented.
func TestDaemonDiesWithDrill(t *testing.T) {
	drill := exec.Command(os.Args[0])
	drill.Env = append(os.Environ(), childEnv+"=drill", "TMPDIR="+t.TempDir())
	out, err := drill.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := drill.Start(); err != nil {
		t.Fatal(err)
	}
	defer drill.Wait()
	defer drill.Process.Kill()
	line, err := bufio.NewReader(out).ReadString('\n')
	pidText, ok := strings.CutPrefix(strings.TrimSpace(line), "daemon ")
	pid, perr := strconv.Atoi(pidText)
	if err != nil || !ok || perr != nil {
		t.Fatalf("drill printed %q (err %v), want daemon <pid>", line, err)
	}
	if err := drill.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	state := ""
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return // gone
		}
		s := string(b)
		if f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:]); len(f) > 0 {
			if state = f[0]; state == "Z" {
				return
			}
		}
	}
	_ = syscall.Kill(pid, syscall.SIGKILL)
	t.Fatalf("daemon %d outlived its SIGKILLed drill by 2 s (state %s)", pid, state)
}

// TestCPUTimeOfSelf reads this process's own /proc stat line: its CPU
// time becomes positive once it spins for a few clock ticks.
func TestCPUTimeOfSelf(t *testing.T) {
	for deadline := time.Now().Add(2 * time.Second); ; {
		cpu, err := CPUTime(os.Getpid())
		if err != nil {
			t.Fatal(err)
		}
		if cpu > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("CPUTime of this process stayed 0 while it spun for 2 s")
		}
		for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
		}
	}
}
