package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildElpcd compiles ./cmd/elpcd from the tree under test into dir.
func buildElpcd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "elpcd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/elpcd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building elpcd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one elpcd child process listening on loopback.
type daemon struct {
	bin  string
	args []string
	log  string
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs elpcd on a free loopback port with extra flags, sending
// its log to logPath, and waits until GET /healthz answers 200.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{bin: bin, args: args, log: logPath, addr: addr}
	return d, d.exec()
}

// exec starts the process on d.addr and waits for it to become healthy.
func (d *daemon) exec() error {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	cmd.Dir = filepath.Dir(d.log)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting elpcd: %w", err)
	}
	d.cmd, d.done = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status is not an outcome we measure
		close(d.done)
	}()
	if err := d.waitHealthy(30 * time.Second); err != nil {
		d.kill()
		return err
	}
	return nil
}

// waitHealthy polls GET /healthz until it answers 200. The poll interval is
// short next to a restart of a few milliseconds, so it adds little to the
// times setup_s and recover_s include.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("elpcd exited before becoming healthy (see %s)", d.log)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("elpcd not healthy after %v (see %s)", timeout, d.log)
		}
	}
}

// stop sends SIGTERM, lets elpcd drain, and waits for it to exit (killing
// it after 20s).
func (d *daemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.done:
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("elpcd did not exit within 20s of SIGTERM")
	}
}

// kill stops the process without draining and waits for it.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// restart stops elpcd with SIGTERM and execs it again with the same flags,
// returning the time from the signal until /healthz answers 200.
func (d *daemon) restart() (time.Duration, error) {
	start := time.Now()
	if err := d.stop(); err != nil {
		return 0, err
	}
	if err := d.exec(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// cpuTime returns the CPU time elpcd's threads have run, summed from
// /proc/<pid>/task/*/schedstat. Unlike the 10 ms ticks of /proc/<pid>/stat
// it counts nanoseconds, which a few seconds of millisecond requests need.
// The Go runtime keeps its threads, so none of the time is lost to a thread
// that exits between two readings.
func (d *daemon) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after ReadDir
		}
		if err != nil {
			return 0, err
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// cpuStat is the machine's CPU time from the first line of /proc/stat, in
// clock ticks: time spent running (user, nice, system, irq, softirq) and
// time a hypervisor took from a virtual CPU that had work to run (steal).
type cpuStat struct{ busy, steal float64 }

func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, errors.New("unexpected first line in /proc/stat")
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(fields[i+1], 64); err != nil {
			return cpuStat{}, err
		}
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealShare is the share of the CPU time wanted between a and b that the
// hypervisor took instead.
func stealShare(a, b cpuStat) float64 {
	return ratio(b.steal-a.steal, b.busy-a.busy+b.steal-a.steal)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
