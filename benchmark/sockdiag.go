package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"syscall"
)

// Netlink sock_diag constants (linux/sock_diag.h, linux/inet_diag.h) that
// package syscall does not define.
const (
	netlinkSockDiag  = 4
	sockDiagByFamily = 20
	inetDiagInfo     = 2      // attribute carrying struct tcp_info
	tcpEstablished   = 1 << 1 // state bitmask: TCP_ESTABLISHED
	inetDiagMsgLen   = 72     // sizeof(struct inet_diag_msg)
	tcpiBytesAcked   = 120    // offsetof(struct tcp_info, tcpi_bytes_acked)
	tcpiBytesRecv    = 128    // offsetof(struct tcp_info, tcpi_bytes_received)
	tcpInfoMinLen    = tcpiBytesRecv + 8
)

// socketBytes asks the kernel for the byte counters of every established
// TCP socket whose peer port is dport, and returns the bytes those sockets
// have had acknowledged (sent) and have received, summed. For the broker
// port this is everything the devices exchanged with the broker as it
// crossed the loopback link — wire framing, acks and heartbeats included —
// measured without anything sitting in the data path.
func socketBytes(dport int) (sent, received uint64, err error) {
	fd, err := syscall.Socket(syscall.AF_NETLINK, syscall.SOCK_RAW, netlinkSockDiag)
	if err != nil {
		return 0, 0, fmt.Errorf("sock_diag socket: %w", err)
	}
	defer syscall.Close(fd)

	// struct nlmsghdr + struct inet_diag_req_v2.
	req := make([]byte, syscall.NLMSG_HDRLEN+56)
	binary.LittleEndian.PutUint32(req[0:], uint32(len(req)))
	binary.LittleEndian.PutUint16(req[4:], sockDiagByFamily)
	binary.LittleEndian.PutUint16(req[6:], syscall.NLM_F_REQUEST|syscall.NLM_F_DUMP)
	body := req[syscall.NLMSG_HDRLEN:]
	body[0] = syscall.AF_INET
	body[1] = syscall.IPPROTO_TCP
	body[2] = 1 << (inetDiagInfo - 1) // idiag_ext: ask for tcp_info
	binary.LittleEndian.PutUint32(body[4:], tcpEstablished)
	if err := syscall.Sendto(fd, req, 0, &syscall.SockaddrNetlink{Family: syscall.AF_NETLINK}); err != nil {
		return 0, 0, fmt.Errorf("sock_diag request: %w", err)
	}

	buf := make([]byte, 1<<16)
	for {
		n, _, err := syscall.Recvfrom(fd, buf, 0)
		if err != nil {
			return 0, 0, fmt.Errorf("sock_diag reply: %w", err)
		}
		msgs, err := syscall.ParseNetlinkMessage(buf[:n])
		if err != nil {
			return 0, 0, fmt.Errorf("sock_diag reply: %w", err)
		}
		for _, m := range msgs {
			switch m.Header.Type {
			case syscall.NLMSG_DONE:
				return sent, received, nil
			case syscall.NLMSG_ERROR:
				return 0, 0, errors.New("sock_diag: kernel refused the request")
			}
			s, r := socketCounters(m.Data, dport)
			sent += s
			received += r
		}
	}
}

// socketCounters extracts the byte counters from one inet_diag_msg when its
// destination port matches.
func socketCounters(msg []byte, dport int) (sent, received uint64) {
	if len(msg) < inetDiagMsgLen || int(binary.BigEndian.Uint16(msg[6:8])) != dport {
		return 0, 0
	}
	attrs := msg[inetDiagMsgLen:]
	for len(attrs) >= 4 {
		l := int(binary.LittleEndian.Uint16(attrs[0:]))
		typ := binary.LittleEndian.Uint16(attrs[2:])
		if l < 4 || l > len(attrs) {
			break
		}
		if typ == inetDiagInfo && l >= 4+tcpInfoMinLen {
			info := attrs[4:l]
			sent += binary.LittleEndian.Uint64(info[tcpiBytesAcked:])
			received += binary.LittleEndian.Uint64(info[tcpiBytesRecv:])
		}
		attrs = attrs[min((l+3)&^3, len(attrs)):]
	}
	return sent, received
}
