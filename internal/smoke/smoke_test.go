package smoke

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// childEnv marks a re-executed test binary: "1" makes it the daemon
// stand-in, "drill" a drill that starts one daemon and waits.
const childEnv = "SMOKE_TEST_CHILD"

// TestMain turns the re-executed binary into a minimal daemon, which
// announces an address the way lwtserved and lwtgate do and exits 0 on
// SIGTERM, or into a drill that starts such a daemon, prints its pid
// and blocks until killed.
func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "1":
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		fmt.Println("listening on 127.0.0.1:4242")
		<-term
		os.Exit(0)
	case "drill":
		os.Setenv(childEnv, "1")
		d := &Drill{LogDir: os.TempDir()}
		p, err := d.Start("smoke-test-daemon", 10*time.Second, os.Args[0])
		if err != nil {
			fmt.Println("error", err)
			os.Exit(1)
		}
		fmt.Println("daemon", p.Cmd.Process.Pid)
		select {}
	}
	os.Exit(m.Run())
}

// TestStartWaitAddrSignal re-executes this test binary as a child: the
// drill must hand back the address it announces, report exit 0 after
// SIGTERM, and keep the child's output in its log.
func TestStartWaitAddrSignal(t *testing.T) {
	t.Setenv(childEnv, "1")
	drill := &Drill{LogDir: t.TempDir()}
	p, err := drill.Start("child", 10*time.Second, os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Cmd.Process.Kill()
	if p.Addr != "127.0.0.1:4242" {
		t.Fatalf("Addr = %q, want 127.0.0.1:4242", p.Addr)
	}
	if code, err := p.SignalAndWait(syscall.SIGTERM, 10*time.Second); err != nil || code != 0 {
		t.Fatalf("after SIGTERM: exit %d, err %v; want exit 0", code, err)
	}
	if !strings.Contains(drill.Log("child"), "listening on 127.0.0.1:4242") {
		t.Fatal("child log lacks its announcement")
	}
}

// TestParseStatCPU counts utime and stime from the last ')': a command
// name with spaces and a ')' shifts every whitespace-split field.
func TestParseStatCPU(t *testing.T) {
	line := "4242 (lwt served) x) S 1 4242 4242 0 -1 4194560 812 0 0 0 250 37 0 0 20 0 5 0 1234 0 0\n"
	got, err := parseStatCPU(line)
	if want := 287 * 10 * time.Millisecond; err != nil || got != want {
		t.Fatalf("parseStatCPU = %v, %v; want %v", got, err, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("parseStatCPU accepted a truncated line")
	}
}

// TestSum adds every label set of one family and no other family.
func TestSum(t *testing.T) {
	page := `# TYPE lwt_serve_steals_total counter
lwt_serve_steals_total{backend="go",shard="0"} 3
lwt_serve_steals_total{backend="a}b",shard="1"} 4
lwt_serve_steals_total_other 100
lwt_serve_steals 1000
`
	if got := Sum(page, "lwt_serve_steals_total"); got != 7 {
		t.Fatalf("Sum = %v, want 7", got)
	}
}
