package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// cpuTicks is the machine-wide CPU tick counters of /proc/stat: all
// time, and the time the hypervisor gave to other machines ("steal").
type cpuTicks struct{ total, steal uint64 }

// readTicks parses the aggregate "cpu" line of /proc/stat; ok is false
// where there is none.
func readTicks() (t cpuTicks, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// stealShare is the share of CPU time stolen by the hypervisor since
// from; 0 where /proc/stat cannot tell. The benchmark runs on shared
// virtual machines, where this is the largest source of run-to-run
// noise.
func stealShare(from cpuTicks, ok bool) float64 {
	to, ok2 := readTicks()
	if !ok || !ok2 || to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// stealSince reports stealShare for a human reader.
func stealSince(from cpuTicks, ok bool) string {
	if !ok {
		return "steal unknown"
	}
	return fmt.Sprintf("steal %.1f%%", 100*stealShare(from, ok))
}
