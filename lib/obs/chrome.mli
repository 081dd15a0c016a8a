(** Chrome trace_event (chrome://tracing, Perfetto) export of rule firing.

    One process (pid 0) with one thread track per cluster: track 0 is the
    uncore, track [i + 1] core [i], and track [ncores + 1 + b] bank [b] of
    a banked L2. Rule fires become complete ("X") slices — consecutive-cycle
    fires of the same rule are merged — and per-cluster fire counts become
    counter ("C") series. One simulated cycle is rendered as one
    microsecond.

    [names].(rid) names the rules as numbered by [Hub.attach]. Output is a
    deterministic function of the recorded fires. *)

val to_string : names:string array -> ncores:int -> rt:Rule_trace.t -> string
