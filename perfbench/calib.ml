(* A fixed program, independent of memhog, timed beside every host-time
   sample of the untraced run so that host times can be reported at one
   reference speed.

   On a shared host, other tenants' memory traffic slows memory-bound code
   for minutes at a time: within six minutes one workload's runs took from
   1.2 s to 2.3 s, while a pure integer loop stayed within 10%.  This loop
   has the simulator's shape (an ordered event queue, a hashed table of
   state records, short-lived allocation), so the same contention slows it
   by about as much: over those minutes, the median of 20 runs each divided
   by the loop's time next to it varied 11% where the plain median varied
   37%.  It shares no code with memhog, so a change to memhog cannot move
   it. *)

module Q = Map.Make (Int)

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff
let table_size = 1 lsl 16
let queue_size = 1024
let steps = 300_000

(* Pop the earliest event, update a random record, and push the event back
   later with a short list of what it carried. *)
let work () =
  let table = Hashtbl.create table_size in
  for i = 0 to table_size - 1 do
    Hashtbl.replace table i (ref i)
  done;
  let x = ref 7 and q = ref Q.empty in
  for id = 0 to queue_size - 1 do
    x := lcg !x;
    q := Q.add (((!x land 0xffff) * queue_size) + id) [ id ] !q
  done;
  let acc = ref 0 in
  for _ = 1 to steps do
    let key, carried = Q.min_binding !q in
    q := Q.remove key !q;
    x := lcg !x;
    let r = Hashtbl.find table (!x land (table_size - 1)) in
    r := !r + key;
    acc := !acc + List.length carried;
    let id = key mod queue_size in
    let later = (key / queue_size) + 1 + (!x land 0xfff) in
    q :=
      Q.add
        ((later * queue_size) + id)
        (id :: List.filteri (fun i _ -> i < 3) carried)
        !q
  done;
  !acc

(* Host seconds of one [work ()]. *)
let measure () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  Clock.since_s t0

(* Scaled host times are in seconds of a host on which [measure] reads
   this: close to its fastest readings on a shared 2-vCPU Intel Xeon VM
   with OCaml 5.1.1. *)
let reference_s = 0.2
