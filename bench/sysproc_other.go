//go:build !linux

package main

import "syscall"

// childAttr puts a child in its own process group.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true}
}
