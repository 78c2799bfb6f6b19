package smoke

import "syscall"

// procAttr puts a child in its own process group and has the kernel
// SIGKILL it when the drill dies, so a drill killed by a timeout, an
// interrupt, a panic or Fatalf leaves no daemon behind.
func procAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}
