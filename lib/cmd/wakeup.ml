(* Generation-counter wakeup signals.

   A signal is a monotonically increasing counter attached to a state
   element (EHR, FIFO, wire). Primitives [touch] their signal whenever
   their observable value changes. A parked rule remembers the *sum* of
   the generations of the signals it watches; because every counter only
   ever grows, the sum changes iff at least one watched signal was
   touched, so a single integer comparison per cycle suffices to decide
   whether the rule might have become fireable again.

   This deliberately avoids subscriber lists: rules park and unpark every
   cycle in the hot loop, and maintaining waiter sets would either leak
   stale subscriptions or cost an unsubscribe on every wake. Counters
   make spurious wakeups cheap (one predicate re-evaluation) and missed
   wakeups impossible as long as primitives touch on every value change. *)

type signal = { mutable gen : int }

let make () = { gen = 0 }
let touch s = s.gen <- s.gen + 1
let gen s = s.gen

let sum (a : signal array) =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + (Array.unsafe_get a i).gen
  done;
  !acc
