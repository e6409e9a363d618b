package fleettest

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestStartFailsFastOnTakenPort: a daemon that cannot bind its query
// port exits at once, and the start must report that exit — naming the
// bind failure — instead of polling out a readiness deadline.
func TestStartFailsFastOnTakenPort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs merakid; skipped in -short")
	}
	bin, err := Build("merakid")
	if err != nil {
		t.Fatal(err)
	}
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	listen, err := pickPorts(1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d := newDaemon(bin, listen[0], held.Addr().String(), "", nil)
	err = d.start()
	took := time.Since(start)
	if err == nil {
		d.Stop()
		t.Fatal("daemon started on a query port the test holds")
	}
	if !errors.Is(err, errPortTaken) || !strings.Contains(err.Error(), "bind") {
		t.Fatalf("start error = %v, want errPortTaken naming the bind failure", err)
	}
	if took > 2*time.Second {
		t.Fatalf("failed start took %v, want well under the 5s the old readiness poll burned", took)
	}
}
