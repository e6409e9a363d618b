package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark started, so a signal or
// fatal error kills and reaps them before the benchmark exits.
var children struct {
	sync.Mutex
	set map[*proc]bool
}

// proc is a started child process whose Wait runs in the background.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func startProc(cmd *exec.Cmd) (*proc, error) {
	// Should the benchmark die before it can reap its children, the
	// kernel kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*proc]bool)
	}
	children.set[p] = true
	children.Unlock()
	go func() {
		p.err = cmd.Wait()
		children.Lock()
		delete(children.set, p)
		children.Unlock()
		close(p.done)
	}()
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill stops the process and waits until it has been reaped.
func (p *proc) kill() {
	if !p.exited() {
		_ = p.cmd.Process.Kill() // an already-exited process is fine
	}
	<-p.done
}

// killChildren kills and reaps every tracked child.
func killChildren() {
	children.Lock()
	ps := make([]*proc, 0, len(children.set))
	for p := range children.set {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// reapOnSignal kills the children when the benchmark is interrupted.
func reapOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		killChildren()
		os.Exit(2)
	}()
}

// procStats is what /proc says about a process: peak resident set and
// CPU time consumed so far.
type procStats struct {
	HWMKB int64
	CPU   time.Duration // user + system
}

// clockTick is the kernel's USER_HZ, the unit of /proc/PID/stat times;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

func readProcStats(pid int) (procStats, error) {
	var st procStats
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, ln := range strings.Split(string(status), "\n") {
		if f := strings.Fields(ln); len(f) >= 2 && f[0] == "VmHWM:" {
			st.HWMKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	stt, _ := strconv.ParseInt(f[12], 10, 64)
	st.CPU = time.Duration(ut+stt) * clockTick
	return st, nil
}

// freePorts picks n loopback ports the kernel reports free. They are
// released before merakid binds them, so another process can take one
// in between; startMerakid retries when that happens.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// merakid is one running daemon.
type merakid struct {
	*proc
	Listen, Query string
}

// errBind marks a start that failed only because a port was taken.
var errBind = errors.New("port taken")

// startMerakid boots merakid with a fresh WAL directory under dir and
// waits until it answers queries. A start that loses a port race is
// retried on new ports; it is not an error, and the time it took is
// returned so set-up time can leave it out.
func startMerakid(bin, dir string, extra []string) (d *merakid, retried time.Duration, err error) {
	for attempt := 0; attempt < 10; attempt++ {
		t0 := time.Now()
		d, err = tryStartMerakid(bin, dir, extra)
		if !errors.Is(err, errBind) {
			return d, retried, err
		}
		retried += time.Since(t0)
	}
	return nil, retried, fmt.Errorf("merakid: no free ports after 10 attempts")
}

func tryStartMerakid(bin, dir string, extra []string) (*merakid, error) {
	walDir := filepath.Join(dir, "wal")
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "merakid.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{
		"-listen", ports[0], "-query", ports[1],
		"-wal-dir", walDir, "-checkpoint", "0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	p, err := startProc(cmd)
	if err != nil {
		return nil, err
	}
	d := &merakid{proc: p, Listen: ports[0], Query: ports[1]}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			logText, _ := os.ReadFile(logPath)
			if bytes.Contains(logText, []byte("address already in use")) {
				return nil, errBind
			}
			return nil, fmt.Errorf("merakid exited during start: %v\n%s", p.err, logText)
		}
		if _, err := query(d.Query, "status", time.Second); err == nil {
			return d, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("merakid did not answer queries within 30s")
}

// stats reads the daemon's /proc entries; it must run before kill.
func (d *merakid) stats() (procStats, error) {
	return readProcStats(d.cmd.Process.Pid)
}

// query sends one line-protocol query and returns the reply lines up
// to the blank terminator. A reply cut short is an error.
func query(addr, cmd string, timeout time.Duration) ([]string, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "%s\nquit\n", cmd); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lines []string
	for sc.Scan() {
		if sc.Text() == "" {
			return lines, nil
		}
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("query %q: reply truncated after %d lines", cmd, len(lines))
}

// queryOK is query with an "ERR" reply turned into an error.
func queryOK(addr, cmd string, timeout time.Duration) ([]string, error) {
	lines, err := query(addr, cmd, timeout)
	if err != nil {
		return nil, err
	}
	if len(lines) > 0 && strings.HasPrefix(lines[0], "ERR") {
		return nil, fmt.Errorf("query %q: %s", cmd, lines[0])
	}
	return lines, nil
}

// statusField extracts an integer "key=value" field from status lines.
func statusField(lines []string, key string) (int64, bool) {
	for _, ln := range lines {
		for _, f := range strings.Fields(ln) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}
