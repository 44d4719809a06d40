package locks

// The functions below pin how the lock state flows through each statement
// kind: if joins, loops, switches, selects and labels.

// okThenReturnsWithElse: the then-arm releases and returns, so only the
// else-arm's state, still locked, reaches the access after the if.
func okThenReturnsWithElse(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return 0
	} else {
		c.count++
	}
	v := c.count
	c.mu.Unlock()
	return v
}

// okElseReturns: the else-arm releases and returns, so only the then-arm's
// state, still locked, reaches the access after the if.
func okElseReturns(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		c.count++
	} else {
		c.mu.Unlock()
		return 0
	}
	v := c.count
	c.mu.Unlock()
	return v
}

// okBothArmsReturn: neither arm falls through, so the if ends the path.
func okBothArmsReturn(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		defer c.mu.Unlock()
		return c.count
	} else {
		c.mu.Unlock()
		return 0
	}
}

// badElseUnlocks: the arms fall through with different lock states, so the
// join drops the lock.
func badElseUnlocks(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		c.count++
	} else {
		c.mu.Unlock()
	}
	return c.count // want `lock-discipline: field count is //guardedby:mu but accessed in badElseUnlocks without c\.mu held`
}

// badSelectArm: a select arm runs its receive and body on its own copy of
// the lock state; the label around the loop changes nothing.
func badSelectArm(c *counter, in chan int) {
loop:
	for {
		select {
		case v := <-in:
			c.count += v // want `lock-discipline: field count is //guardedby:mu but accessed in badSelectArm without c\.mu held`
		default:
			break loop
		}
	}
}

// okEveryStatement holds the lock to function end across every statement
// kind the walk threads the state through.
func okEveryStatement(c *counter, xs []int, v any, out chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total = c.count
	for i := 0; i < c.count; i++ {
		total += i
	}
	for _, x := range xs {
		c.count += x
	}
	switch n := c.count; n {
	case c.count:
		total--
	}
	if total > 0 {
		total++
	} else {
		total--
	}
	switch w := v; x := w.(type) {
	case int:
		c.count += x
	}
	go func() {}()
	defer func() {}()
	out <- c.count
	if n := c.count; total > n {
		goto done
	}
	c.count++
done:
}
