// Package fleettest runs real merakid fleets for the end-to-end tests
// and smoke gates: it builds the binaries once per process, picks
// loopback ports, starts daemons and shard clusters, kills and
// restarts them on the same addresses, and drives agent fleets whose
// deterministic report streams have a known control digest. Every
// function returns errors; tests wrap them in t.Fatal and the smoke
// gates print them and exit non-zero.
package fleettest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var builds struct {
	sync.Mutex
	m map[string]*build
}

type build struct {
	once sync.Once
	path string
	err  error
}

// Build compiles wlanscale/cmd/<name> (merakid, merakireport) once per
// process and returns the binary's path. Each binary sits alone in a
// temporary directory, which a caller that wants it gone removes.
func Build(name string) (string, error) {
	builds.Lock()
	if builds.m == nil {
		builds.m = make(map[string]*build)
	}
	b := builds.m[name]
	if b == nil {
		b = &build{}
		builds.m[name] = b
	}
	builds.Unlock()
	b.once.Do(func() {
		dir, err := os.MkdirTemp("", "fleettest-"+name+"-*")
		if err != nil {
			b.err = err
			return
		}
		b.path = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", b.path, "wlanscale/cmd/"+name).CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build %s: %v\n%s", name, err, out)
		}
	})
	return b.path, b.err
}

// pickPorts returns n distinct loopback addresses the kernel reported
// free. They are released before returning, so another process can
// bind one before a daemon does; Start relaunches on fresh ports when
// that happens.
func pickPorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// errPortTaken marks a daemon that exited at start because another
// process had bound one of its addresses.
var errPortTaken = errors.New("fleettest: port taken")

// startTimeout bounds one daemon start: WAL recovery plus binding.
const startTimeout = 10 * time.Second

// Daemon is one merakid process and the addresses and flags it runs
// with, so it can be killed and restarted in place.
type Daemon struct {
	Listen, Query string

	bin  string
	args []string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	last string        // the daemon's last log line, read after done
}

// newDaemon prepares a daemon on the given addresses. It runs with fast
// polls and small batches so a test fleet drains in well under a
// second, no trace sampling, and — when walDir is set — a write-ahead
// log there with fsync off (a SIGKILL loses no page-cache writes) and
// checkpoints often enough that recovery replays checkpoint and log
// both. extra follows, so it can override any of these.
func newDaemon(bin, listen, query, walDir string, extra []string) *Daemon {
	args := []string{
		"-listen", listen, "-query", query,
		"-poll", "20ms", "-batch", "8", "-timeout", "2s", "-trace-sample", "0",
	}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir, "-wal-fsync", "off", "-checkpoint", "75ms")
	}
	return &Daemon{Listen: listen, Query: query, bin: bin, args: append(args, extra...)}
}

// start launches the process and waits for the log line merakid prints
// once both listeners are bound. Waiting on the daemon's own log, not
// on a dial, means an address some other process answers on cannot
// pass for this daemon being up. A daemon that exits first fails the
// start at once with its own last log line — for a taken port, the
// listen error, wrapped in errPortTaken.
func (d *Daemon) start() error {
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout = os.Stderr
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	done, ready := make(chan struct{}), make(chan struct{})
	d.cmd, d.done = cmd, done
	go func() {
		sc := bufio.NewScanner(stderr)
		up := false
		for sc.Scan() {
			ln := sc.Text()
			fmt.Fprintln(os.Stderr, ln)
			d.last = ln
			if !up && strings.Contains(ln, "merakid: devices on ") {
				up = true
				close(ready)
			}
		}
		io.Copy(os.Stderr, stderr) // past an over-long line, keep the pipe drained
		cmd.Wait()
		close(done)
	}()
	select {
	case <-ready:
		return nil
	case <-done:
		err := fmt.Errorf("merakid (query %s) exited during start: %s", d.Query, d.last)
		if strings.Contains(d.last, "address already in use") {
			err = fmt.Errorf("%w: %v", errPortTaken, err)
		}
		return err
	case <-time.After(startTimeout):
		d.Stop()
		return fmt.Errorf("merakid (query %s) did not bind within %v", d.Query, startTimeout)
	}
}

// Kill SIGKILLs the daemon and reaps it. It fails if the daemon had
// already exited on its own, which a crash test must not mistake for
// its own kill.
func (d *Daemon) Kill() error {
	select {
	case <-d.done:
		return fmt.Errorf("merakid (query %s) had already exited: %s", d.Query, d.last)
	default:
	}
	d.cmd.Process.Signal(syscall.SIGKILL) // fails only if it exited meanwhile
	<-d.done
	return nil
}

// Restart starts a stopped daemon again with the same addresses,
// flags and WAL directory, so it recovers what the last run logged and
// attached agents reconnect to it.
func (d *Daemon) Restart() error { return d.start() }

// Stop kills the daemon if it is still running and waits until it is
// reaped. It is safe on a daemon that never started or already exited.
func (d *Daemon) Stop() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// Cluster is a set of daemons launched together on freshly picked
// ports.
type Cluster struct {
	Daemons []*Daemon
	// Spare holds the extra ports Config.Spare asked for, for flags
	// such as -debug.
	Spare []string
}

// Config describes a cluster launch.
type Config struct {
	// Bin is the merakid binary (see Build).
	Bin string
	// Daemons is how many daemons to start.
	Daemons int
	// WALRoot, when set, gives daemon i a write-ahead log in
	// WALRoot/wal-<i>; otherwise daemons keep their stores in memory.
	WALRoot string
	// Spare is how many extra ports to pick into Cluster.Spare.
	Spare int
	// Flags returns daemon i's flags beyond the harness set (see
	// newDaemon), given the cluster's addresses, so -peers can list
	// every query port. A relaunch calls it again with the new ports.
	Flags func(i int, c *Cluster) []string
}

// Start launches the cluster and returns once every daemon has bound
// its ports. When a daemon loses a port to another process, the whole
// cluster is stopped and relaunched on freshly picked ports — nothing
// can have attached to the lost addresses yet. Any other failure is
// returned at once.
func Start(cfg Config) (*Cluster, error) {
	const launches = 5
	for attempt := 1; ; attempt++ {
		c, err := launch(cfg)
		if err == nil || !errors.Is(err, errPortTaken) || attempt == launches {
			return c, err
		}
	}
}

func launch(cfg Config) (*Cluster, error) {
	ports, err := pickPorts(2*cfg.Daemons + cfg.Spare)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Spare: ports[2*cfg.Daemons:]}
	for i := 0; i < cfg.Daemons; i++ {
		c.Daemons = append(c.Daemons, &Daemon{Listen: ports[2*i], Query: ports[2*i+1]})
	}
	for i, d := range c.Daemons {
		walDir := ""
		if cfg.WALRoot != "" {
			// A relaunch starts from an empty log, not from what a
			// daemon that lost its port may have written.
			walDir = filepath.Join(cfg.WALRoot, "wal-"+strconv.Itoa(i))
			if err := os.RemoveAll(walDir); err != nil {
				c.Stop()
				return nil, err
			}
		}
		var extra []string
		if cfg.Flags != nil {
			extra = cfg.Flags(i, c)
		}
		*d = *newDaemon(cfg.Bin, d.Listen, d.Query, walDir, extra)
		if err := d.start(); err != nil {
			c.Stop()
			return nil, fmt.Errorf("daemon %d: %w", i, err)
		}
	}
	return c, nil
}

// Queries returns every daemon's query address, in daemon order.
func (c *Cluster) Queries() []string {
	out := make([]string, len(c.Daemons))
	for i, d := range c.Daemons {
		out[i] = d.Query
	}
	return out
}

// Stop stops every daemon.
func (c *Cluster) Stop() {
	for _, d := range c.Daemons {
		d.Stop()
	}
}

// ShardFlags is a Config.Flags for a sharded cluster: daemon i runs as
// shard i of all of them, with every query port as -peers.
func ShardFlags(i int, c *Cluster) []string {
	return []string{
		"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(len(c.Daemons)),
		"-peers", strings.Join(c.Queries(), ","),
	}
}

// GrowFlags is a Config.Flags for a cluster about to grow from old
// shards to all of its daemons: the first old daemons run the old
// topology at map epoch 1, the rest are empty new shards at epoch 2,
// and each lists its own topology's query ports as -peers.
func GrowFlags(old int) func(i int, c *Cluster) []string {
	return func(i int, c *Cluster) []string {
		shards, epoch := old, "1"
		if i >= old {
			shards, epoch = len(c.Daemons), "2"
		}
		return []string{
			"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(shards),
			"-peers", strings.Join(c.Queries()[:shards], ","), "-map-epoch", epoch,
		}
	}
}
