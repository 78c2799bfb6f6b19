//go:build !linux

package smoke

import "syscall"

// procAttr leaves a child in the drill's process group: without
// Pdeathsig, which only Linux has, an interrupt from the terminal is
// what takes the daemons down with the drill.
func procAttr() *syscall.SysProcAttr { return nil }
