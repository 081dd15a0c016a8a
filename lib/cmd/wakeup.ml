(* Push wakeup signals.

   A signal is attached to a state element (EHR, FIFO, wire, ROB) and
   carries the subscriptions of the parked rules that watch it: a wake
   board (one byte per rule of a scheduler) and a rule id on it. [touch]
   sets each subscriber's byte; the scheduler passes over a parked rule
   whose byte is clear without evaluating anything, and clears the byte
   whenever it re-evaluates the rule's predicate. A touch therefore wakes
   a parked rule iff a watched signal changed since the predicate last
   said false, which is what a parked predicate needs.

   Subscriptions are made once, when a scheduler is built, and never
   removed: a rule that is not parked ignores its byte, so a touch costs
   a few byte stores and no rule ever unsubscribes. A second scheduler
   over the same rules adds its own board. *)

type signal = { mutable boards : Bytes.t array; mutable ids : int array }

let make () = { boards = [||]; ids = [||] }

let touch s =
  let ids = s.ids in
  for i = 0 to Array.length ids - 1 do
    Bytes.unsafe_set (Array.unsafe_get s.boards i) (Array.unsafe_get ids i) '\001'
  done

let subscribe s board id =
  let n = Array.length s.ids in
  let rec known i = i < n && ((s.boards.(i) == board && s.ids.(i) = id) || known (i + 1)) in
  if not (known 0) then begin
    s.boards <- Array.append s.boards [| board |];
    s.ids <- Array.append s.ids [| id |]
  end
