package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// samples is one operation's latencies, in seconds.
type samples []float64

// quantile returns the nearest-rank p-quantile (0 < p <= 1), or 0 when
// there are no samples: a run whose operations all failed still prints a
// result line, and its failures mark it incorrect.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	return c[max(i, 0)]
}

// beyond counts the samples strictly above the nearest-rank p-quantile.
func (s samples) beyond(p float64) int {
	return len(s) - int(math.Ceil(p*float64(len(s))))
}

// tail picks the highest percentile of a fixed ladder that has at least
// ten samples beyond it. With fewer than twenty samples none qualifies
// and the median is returned, flagged by ok == false.
func (s samples) tail() (p float64, ok bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if s.beyond(p) >= 10 {
			return p, true
		}
	}
	return 0.5, false
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// describe renders a latency series as one human-readable line.
func (s samples) describe(name string, scale float64, unit string) string {
	if len(s) == 0 {
		return fmt.Sprintf("%-22s n=0", name)
	}
	p, ok := s.tail()
	note := ""
	if !ok {
		note = " (no percentile has 10 samples beyond it)"
	}
	return fmt.Sprintf("%-22s n=%-7d p50=%.4g %s  p%g=%.4g %s (%d beyond)%s",
		name, len(s), s.quantile(0.5)*scale, unit, p*100, s.quantile(p)*scale, unit, s.beyond(p), note)
}

// procStatus reads one "Key:   N kB" field of /proc/<pid>/status in MiB.
func procStatusMB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// procCounters is a process's CPU time and I/O counters.
type procCounters struct {
	cpuS                       float64
	rchar, wchar, syscr, syscw float64
}

// readProc samples /proc/<pid>/stat (utime + stime) and /proc/<pid>/io.
func readProc(pid int) (procCounters, error) {
	var pc procCounters
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return pc, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(stat)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return pc, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	pc.cpuS = (ut + st) / 100
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return pc, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		name, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
		switch name {
		case "rchar":
			pc.rchar = n
		case "wchar":
			pc.wchar = n
		case "syscr":
			pc.syscr = n
		case "syscw":
			pc.syscw = n
		}
	}
	return pc, nil
}

// since returns the counters accumulated after base.
func (pc procCounters) since(base procCounters) procCounters {
	return procCounters{
		cpuS:  pc.cpuS - base.cpuS,
		rchar: pc.rchar - base.rchar,
		wchar: pc.wchar - base.wchar,
		syscr: pc.syscr - base.syscr,
		syscw: pc.syscw - base.syscw,
	}
}

// record stores the counters as per-layer metrics.
func (pc procCounters) record(r *run) {
	r.layer("proc.cpu_s", pc.cpuS, "s")
	r.layer("io.rchar_mb", pc.rchar/(1<<20), "MiB")
	r.layer("io.wchar_mb", pc.wchar/(1<<20), "MiB")
	r.layer("io.syscr", pc.syscr, "count")
	r.layer("io.syscw", pc.syscw, "count")
}

// dirMB sums the sizes of the regular files under dir, in MiB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}

// cpuTicks reads the machine-wide CPU time split from /proc/stat: the
// total, the time stolen by the hypervisor and the time spent waiting
// for I/O, in clock ticks.
func cpuTicks() (total, steal, iowait float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		switch i {
		case 4:
			iowait = v
		case 7:
			steal = v
		}
	}
	return total, steal, iowait
}
