package chaos

// SvcShrink reduces a failing service schedule to a (locally) minimal
// reproducer with Shrink's driver and budget. Its passes, in order: drop
// an outage, halve an outage, shed tenants, shed vanishers, truncate the
// horizon, halve a fault rate.
func SvcShrink(s SvcSchedule) (SvcSchedule, *Violation, int, error) {
	run := func(c SvcSchedule) (*Violation, error) {
		res, err := RunSvc(c)
		if err != nil {
			return nil, err
		}
		return res.Violation, nil
	}
	return shrink(s, run, func(k *shrinker[SvcSchedule]) bool {
		improved := false
		// 1. Drop whole outages, one at a time.
		for i := 0; i < len(k.cur.Outages); i++ {
			c := k.cur
			c.Outages = without(k.cur.Outages, i)
			if k.try(c) {
				improved = true
				i--
			}
		}
		// 2. Halve outage durations (floor 50ms — shorter than a lease
		// renewal round trip and nothing notices).
		for i := range k.cur.Outages {
			o := k.cur.Outages[i]
			if o.EndMS-o.StartMS <= 50 {
				continue
			}
			c := k.cur
			c.Outages = append([]SvcOutage(nil), k.cur.Outages...)
			c.Outages[i].EndMS = o.StartMS + (o.EndMS-o.StartMS)/2
			improved = k.try(c) || improved
		}
		// 3. Shed tenants (floor 2: churn needs somebody).
		if k.cur.Tenants > 2 {
			c := k.cur
			c.Tenants = max(k.cur.Tenants/2, 2)
			c.Vanish = min(c.Vanish, c.Tenants)
			improved = k.try(c) || improved
		}
		// 4. Shed vanishing tenants.
		if k.cur.Vanish > 0 {
			c := k.cur
			c.Vanish--
			improved = k.try(c) || improved
		}
		// 5. Truncate the horizon toward the violation (end-state
		// violations reject this because the failure moves or vanishes).
		if k.v.Slot+1 < k.cur.HorizonMS {
			c := k.cur
			c.HorizonMS = k.v.Slot + 1
			improved = k.try(c) || improved
		}
		// 6. Halve baseline fault rates.
		for i := 0; i < 4; i++ {
			c := k.cur
			if f, ok := halveRate(c.Faults, i); ok {
				c.Faults = f
				improved = k.try(c) || improved
			}
		}
		return improved
	})
}
