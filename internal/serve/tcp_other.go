//go:build !unix

package serve

import "net"

// readNonblock falls back to a read bounded by the batch linger where
// sockets expose no portable non-blocking read.
func readNonblock(c net.Conn, p []byte) (int, error) { return lingerRead(c, p) }
