package main

import "syscall"

// childAttr puts a child in its own process group and has the kernel kill
// it if the benchmark dies without running its cleanup (SIGKILL included).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}
