package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// confinedEnv marks a psbench that already runs on its one CPU.
const confinedEnv = "PSBENCH_CPU"

// confine narrows the process to a single CPU — the highest it may run
// on, which leaves CPU 0 and its interrupts to the rest of the host —
// and re-executes psbench there, so the generator and every brokerd it
// starts inherit the mask and the Go runtime sizes itself for one CPU.
//
// On this benchmark's host (a two-vCPU virtual machine) a wake-up that
// crosses to the other vCPU costs between 10 and 150 microseconds
// depending on what the hypervisor's other tenants do, and a
// publication through three brokers needs eight of them: measured at the
// parent commit on identical inputs, two CPUs gave 8-10k publications a
// second with rounds 30-55% apart, one CPU 14-16k with the run medians
// within 6% (bench/NOISE.md). What is left on one CPU is the program's
// own work, which is what a change to the program moves.
func confine() error {
	if os.Getenv(confinedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [1024 / 8]byte
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := int(n)*8 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/8]&(1<<(i%8)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	clear(mask[:])
	mask[cpu/8] = 1 << (cpu % 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), fmt.Sprintf("%s=%d", confinedEnv, cpu)))
}
