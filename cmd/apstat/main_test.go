package main

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/cluster"
)

// TestRunTruncatedReply: a merakid that dies mid-reply must make apstat
// fail with ErrTruncated and print nothing, not print the partial
// reply and exit 0.
func TestRunTruncatedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		bufio.NewScanner(c).Scan() // the command
		// Part of a reply, then close without the blank terminator.
		c.Write([]byte("devices=3 ingested=120\nreconnects=0\n"))
	}()
	var out strings.Builder
	err = run(&out, ln.Addr().String(), "status", 2*time.Second)
	if !errors.Is(err, cluster.ErrTruncated) {
		t.Fatalf("run = %v, want ErrTruncated", err)
	}
	if out.Len() != 0 {
		t.Fatalf("truncated reply printed %q", out.String())
	}
}
