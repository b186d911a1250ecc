package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// clockTick is USER_HZ: the unit of the utime/stime fields in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime, in milliseconds, from the text of
// /proc/<pid>/stat. The comm field may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// After comm: state is f[0], so utime (field 14) is f[11], stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// parseStatusKB extracts one "Key:   N kB" line from the text of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPUms reads the process's consumed CPU time (user+system) in ms.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(bytes.TrimSpace(b)))
}

// procStatusMB reads one memory line of the process's status in MB:
// "VmRSS" is the resident set now, "VmHWM" its peak.
func procStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), key)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// dieWithParent makes the kernel SIGKILL the child if this process dies
// without running its cleanup (a SIGKILL of the harness itself).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
