// Command apstat queries a running merakid over its line-based query
// port and prints the response.
//
// Usage:
//
//	apstat [-addr 127.0.0.1:7772] status
//	apstat top-apps 20
//	apstat util
//	apstat save /tmp/snapshot.gob
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wlanscale/internal/cluster"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7772", "merakid query address")
	timeout := flag.Duration("timeout", 10*time.Second, "dial and I/O deadline")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: apstat [-addr host:port] COMMAND [ARGS]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *addr, strings.Join(flag.Args(), " "), *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "apstat: %v\n", err)
		os.Exit(1)
	}
}

// run prints the reply to one query. A stalled merakid costs one
// timeout, not a hung CLI, and a reply cut off before its terminator
// is an error with nothing printed, never a short answer.
func run(w io.Writer, addr, command string, timeout time.Duration) error {
	lines, err := cluster.Query(addr, command, nil, timeout)
	if err != nil {
		return err
	}
	for _, ln := range lines {
		fmt.Fprintln(w, ln)
	}
	return nil
}
