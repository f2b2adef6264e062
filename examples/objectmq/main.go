// ObjectMQ HelloWorld — the paper's Fig. 2 example, plus the three
// invocation primitives of §3.2: @AsyncMethod, @SyncMethod and @MultiMethod.
// It checks each outcome and exits non-zero if one is wrong.
//
//	go run ./examples/objectmq
package main

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"stacksync/internal/mq"
	"stacksync/internal/omq"
)

// HelloServer is the remote object. Exported methods are remotely callable.
type HelloServer struct {
	id      string
	greeted chan<- string // receives the id of every instance that greets
}

// HelloWorld is the @AsyncMethod of Fig. 2: one-way, no reply.
func (h *HelloServer) HelloWorld(name string) {
	fmt.Printf("  [server %s] hello, %s!\n", h.id, name)
	h.greeted <- h.id
}

// Sum is a @SyncMethod: the caller blocks for the result.
func (h *HelloServer) Sum(nums []int) int {
	total := 0
	for _, n := range nums {
		total += n
	}
	return total
}

// WhoAreYou answers @MultiMethod group calls.
func (h *HelloServer) WhoAreYou(struct{}) string { return h.id }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The MOM system (RabbitMQ role) and two ObjectMQ endpoints.
	system := mq.NewBroker()
	defer system.Close()

	// broker.bind("hello", new HelloServer()) — three instances sharing the
	// identifier demonstrate queue-based load balancing and multicast.
	greeted := make(chan string, 3)
	for i := 1; i <= 3; i++ {
		server, err := omq.NewBroker(system)
		if err != nil {
			return err
		}
		defer server.Close()
		if _, err := server.Bind("hello", &HelloServer{id: fmt.Sprintf("S%d", i), greeted: greeted}); err != nil {
			return err
		}
	}

	clientBroker, err := omq.NewBroker(system)
	if err != nil {
		return err
	}
	defer clientBroker.Close()

	// helloClient = broker.lookup("hello")
	hello := clientBroker.Lookup("hello",
		omq.WithTimeout(1500*time.Millisecond), omq.WithRetries(5))

	// @AsyncMethod — unicast: exactly one of the three instances handles it.
	fmt.Println("async helloWorld():")
	if err := hello.Async("HelloWorld", "Bordeaux"); err != nil {
		return err
	}
	select {
	case <-greeted:
	case <-time.After(time.Second):
		return errors.New("no instance handled the async call")
	}

	// @SyncMethod — blocking with timeout and retries.
	var sum int
	if err := hello.Call("Sum", &sum, []int{40, 2}); err != nil {
		return err
	}
	fmt.Printf("sync Sum([40 2]) = %d\n", sum)
	if sum != 42 {
		return fmt.Errorf("Sum([40 2]) = %d, want 42", sum)
	}

	// @MultiMethod + @SyncMethod — one call, replies from every instance.
	replies, err := hello.MultiCall("WhoAreYou", 300*time.Millisecond, struct{}{})
	if err != nil {
		return err
	}
	fmt.Printf("multi WhoAreYou() collected %d replies:", len(replies))
	var ids []string
	for _, r := range replies {
		var id string
		if err := r.Decode(&id); err != nil {
			return err
		}
		fmt.Printf(" %s", id)
		ids = append(ids, id)
	}
	fmt.Println()
	slices.Sort(ids)
	if !slices.Equal(ids, []string{"S1", "S2", "S3"}) {
		return fmt.Errorf("multicall replies %v, want one from each of S1, S2, S3", ids)
	}
	// Unicast: by now a second instance would have greeted too.
	if len(greeted) != 0 {
		return errors.New("the async call was handled more than once")
	}
	return nil
}
