// Package testnet picks loopback join addresses for tests that bring
// up TCP worlds. Only _test.go files import it.
package testnet

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// FreeAddr returns a loopback address for rank 0 to listen on. The port
// lies below the kernel's ephemeral range, which no 127.0.0.1:0
// listener or dial is given, so nothing can take it between this probe
// and rank 0's listen, as it could a port drawn from that range. The
// pid and a counter spread concurrent tests' picks.
func FreeAddr(t testing.TB) string {
	t.Helper()
	lo := 32768 // Linux's default low bound; below IANA's 49152 too
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				lo = v
			}
		}
	}
	base := max(lo-8192, 1024)
	for i := 0; i < lo-base; i++ {
		port := base + (os.Getpid()*131+int(seq.Add(1)))%(lo-base)
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	t.Fatalf("no free loopback port in [%d, %d), below the ephemeral range", base, lo)
	return ""
}

// seq numbers FreeAddr's picks within one test binary.
var seq atomic.Int64
