type t = {
  name : string;
  body : Kernel.ctx -> unit;
  can_fire : (unit -> bool) option;
  watches : Wakeup.signal array;
  vacuous : bool;
  part : int;
  mutable fired : int;
  mutable guard_failed : int;
  mutable conflicted : int;
  mutable skipped : int;
  mutable parked : bool;
  mutable park_sum : int;
  mutable rid : int;
}

let make ?can_fire ?(watches = []) name body =
  {
    name;
    body;
    can_fire;
    watches = Array.of_list watches;
    vacuous = false;
    part = Partition.ambient ();
    fired = 0;
    guard_failed = 0;
    conflicted = 0;
    skipped = 0;
    parked = false;
    park_sum = 0;
    rid = -1;
  }

let reset_stats t =
  t.fired <- 0;
  t.guard_failed <- 0;
  t.conflicted <- 0;
  t.skipped <- 0
