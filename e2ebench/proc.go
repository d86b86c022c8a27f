package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; 100 on every mainstream Linux build.
const clockTick = 100

// proc is one launched server or worker process.
type proc struct {
	name string
	cmd  *exec.Cmd
	pid  int
	// addrs maps each awaited log prefix to the address that followed it.
	addrs map[string]string
	done  chan struct{}

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

// launch starts bin and waits until its log has announced an address
// after every prefix in want (e.g. "listening on ").
func launch(name, bin string, args []string, want []string, timeout time.Duration) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, pid: cmd.Process.Pid, addrs: make(map[string]string), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			for _, w := range want {
				if i := strings.Index(line, w); i >= 0 && p.addrs[w] == "" {
					if f := strings.Fields(line[i+len(w):]); len(f) > 0 {
						p.addrs[w] = f[0]
					}
				}
			}
			complete := !announced && len(p.addrs) == len(want)
			p.mu.Unlock()
			if complete {
				announced = true
				close(ready)
			}
		}
		cmd.Wait()
		close(p.done)
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start: %s", name, p.lastLines())
	case <-time.After(timeout):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its addresses within %v: %s", name, timeout, p.lastLines())
	}
}

// childEnv is the environment for launched processes: the benchmark's own,
// minus GOMAXPROCS, so servers size themselves from the host as in
// production rather than from the generator's cap.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

func (p *proc) addr(prefix string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addrs[prefix]
}

func (p *proc) lastLines() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, waits for the process to exit, and kills it if it
// has not exited within ten seconds.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// procCPU reads a process's user plus system CPU time in nanoseconds.
func procCPU(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parseStatCPU(b)
	if err != nil {
		return 0, err
	}
	return (u + s) * (1e9 / clockTick), nil
}

// parseStatCPU extracts utime and stime (fields 14 and 15, in clock
// ticks) from a /proc/<pid>/stat line. The command name in field 2 may
// hold spaces and parentheses, so fields are counted after its last ')'.
func parseStatCPU(b []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	if utime, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stat stime: %w", err)
	}
	return utime, stime, nil
}

// procHWM reads a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM:")
}

// parseStatusKB returns the value of a "Name:  123 kB" line of
// /proc/<pid>/status in bytes.
func parseStatusKB(b []byte, field string) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, field) {
			continue
		}
		f := strings.Fields(line[len(field):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", field, line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status %s: %w", field, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no %s line", field)
}

// hostCPU is the host-wide CPU time split from /proc/stat, in ticks.
type hostCPU struct {
	total, steal int64
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseProcStat(b)
}

// parseProcStat reads the aggregate "cpu" line of /proc/stat. Its total
// is user+nice+system+idle+iowait+irq+softirq+steal; guest time is
// already counted inside user and nice.
func parseProcStat(b []byte) (hostCPU, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var c hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c, nil
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
