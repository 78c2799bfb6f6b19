package smoke

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// childEnv marks a re-executed test binary as the daemon stand-in.
const childEnv = "SMOKE_TEST_CHILD"

// TestMain turns the re-executed binary into a minimal daemon: it
// announces an address the way lwtserved and lwtgate do, then exits 0
// on SIGTERM.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		fmt.Println("listening on 127.0.0.1:4242")
		<-term
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStartWaitAddrSignal re-executes this test binary as a child: the
// drill must hand back the address it announces, report exit 0 after
// SIGTERM, and keep the child's output in its log.
func TestStartWaitAddrSignal(t *testing.T) {
	t.Setenv(childEnv, "1")
	drill := &Drill{LogDir: t.TempDir()}
	p, err := drill.Start("child", os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Kill()
	addr, err := p.WaitAddr(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:4242" {
		t.Fatalf("WaitAddr = %q, want 127.0.0.1:4242", addr)
	}
	if code, err := p.SignalAndWait(syscall.SIGTERM, 10*time.Second); err != nil || code != 0 {
		t.Fatalf("after SIGTERM: exit %d, err %v; want exit 0", code, err)
	}
	if !drill.LogContains("child", "listening on 127.0.0.1:4242") {
		t.Fatal("child log lacks its announcement")
	}
}
