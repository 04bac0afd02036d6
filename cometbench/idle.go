package main

import (
	"os/exec"
	"syscall"
)

// startIdleSpinners starts n busy loops under the SCHED_IDLE policy,
// which run only on a CPU that has nothing else to run, and returns a
// function that kills them and waits for them to exit. They keep the
// CPUs a workload leaves idle from halting: on a shared 2-vCPU virtual
// machine a halted vCPU was woken late, which read as hypervisor steal
// and as latency (the serve workload, which keeps one vCPU busy, saw
// steal of 0.15-0.37 where the adjacent corpus-c runs saw 0.00-0.03;
// with the spinners its steal fell to 0.00-0.05). Any process of the
// benchmark's own preempts them at once. Each is killed if the
// benchmark dies first. A spinner that cannot start (no chrt) is
// skipped; the count started is returned.
func startIdleSpinners(n int) (stop func(), started int) {
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command("chrt", "--idle", "0", "sh", "-c", "while :; do :; done")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if cmd.Start() == nil {
			cmds = append(cmds, cmd)
		}
	}
	return func() {
		for _, c := range cmds {
			_ = c.Process.Kill()
			_ = c.Wait() // reports the kill
		}
	}, len(cmds)
}
