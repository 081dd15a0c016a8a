type 'a t = 'a Ehr.t

let create ?name init = Ehr.create ?name init
let read ctx t = Ehr.read ctx t 0
let write ctx t v = Ehr.write ctx t 0 v
let modify ctx t f = write ctx t (f (read ctx t))
let peek = Ehr.peek
let poke = Ehr.poke
