(* Tests for the discrete-event simulation kernel. *)

open Memhog_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create ~dummy:"" () in
  Heap.add h ~key:5 ~seq:1 "c";
  Heap.add h ~key:1 ~seq:2 "a";
  Heap.add h ~key:3 ~seq:3 "b";
  let pop () =
    match Heap.pop_min h with Some (_, _, v) -> v | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:0 () in
  for i = 1 to 100 do
    Heap.add h ~key:7 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo on equal keys" (List.init 100 (fun i -> i + 1))
    (List.rev !out)

let test_heap_empty () =
  let h = Heap.create ~dummy:() () in
  check_bool "empty" true (Heap.is_empty h);
  check_bool "pop none" true (Heap.pop_min h = None);
  Heap.add h ~key:1 ~seq:1 ();
  check_int "len" 1 (Heap.length h);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

(* The engine stores event closures in the heap; a popped or cleared slot
   must not pin its payload (space leak across long simulations).  Track
   the payloads with weak pointers and check they get collected. *)
let test_heap_releases_popped_values () =
  let h = Heap.create ~dummy:(ref 0) () in
  let w = Weak.create 8 in
  let fill () =
    for i = 0 to 7 do
      let v = ref (i + 1000) in
      Weak.set w i (Some v);
      Heap.add h ~key:(7 - i) ~seq:i v
    done
  in
  fill ();
  let rec drain () =
    match Heap.pop_min h with Some _ -> drain () | None -> ()
  in
  drain ();
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to 7 do
    check_bool (Printf.sprintf "popped value %d collected" i) false
      (Weak.check w i)
  done

let test_heap_clear_releases_values () =
  let h = Heap.create ~dummy:(ref 0) () in
  let w = Weak.create 8 in
  let fill () =
    for i = 0 to 7 do
      let v = ref (i + 2000) in
      Weak.set w i (Some v);
      Heap.add h ~key:i ~seq:i v
    done
  in
  fill ();
  Heap.clear h;
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to 7 do
    check_bool (Printf.sprintf "cleared value %d collected" i) false
      (Weak.check w i)
  done

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing key order" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun pairs ->
      let h = Heap.create ~dummy:0 () in
      List.iteri (fun i (k, v) -> Heap.add h ~key:k ~seq:i v) pairs;
      let rec drain acc =
        match Heap.pop_min h with
        | Some (k, _, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let keys = drain [] in
      List.sort compare keys = keys)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "streams diverge" true (!same < 4)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in [0,bound)" ~count:500
    QCheck.(pair small_int (float_bound_exclusive 1000.0))
    (fun (seed, bound) ->
      QCheck.assume (bound > 0.0);
      let r = Rng.create ~seed in
      let v = Rng.float r bound in
      v >= 0.0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Samplers: Rng.int uniformity, exponential, zipf                     *)
(* ------------------------------------------------------------------ *)

(* Rejection sampling makes Rng.int unbiased for any bound, not just
   powers of two.  With 60,000 draws over a bound of 3, each value's
   expected share is 20,000 with sigma ~115; a 5% corridor is ~10 sigma,
   far beyond the reach of a seeded (deterministic) stream. *)
let test_rng_int_uniform () =
  let r = Rng.create ~seed:11 in
  let counts = Array.make 3 0 in
  let draws = 60_000 in
  for _ = 1 to draws do
    let v = Rng.int r 3 in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = draws / 3 in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "value %d within 5%% of uniform (%d)" i c)
        true
        (abs (c - expect) < expect / 20))
    counts

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int stays in [0,bound) for any bound"
    ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential samples are non-negative and finite"
    ~count:500
    QCheck.(pair small_int (float_range 0.001 1e9))
    (fun (seed, mean) ->
      let r = Rng.create ~seed in
      let v = Rng.exponential r ~mean in
      v >= 0.0 && Float.is_finite v)

(* Law of large numbers at a deterministic seed: 100k draws put the
   empirical mean well within 5% of the requested mean (sigma of the
   sample mean is mean/sqrt(n) ~ 0.3%). *)
let test_exponential_empirical_mean () =
  let r = Rng.create ~seed:23 in
  let mean = 5_000.0 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean
  done;
  let emp = !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "empirical mean %.1f within 5%% of %.1f" emp mean)
    true
    (Float.abs (emp -. mean) /. mean < 0.05)

(* Zipf: lower ranks must be drawn more often.  At theta 1.2 adjacent-ish
   ranks differ by large factors (rank 0 : rank 1 : rank 3 is roughly
   1 : 0.44 : 0.19), so with 50k draws the ordering over a few spot
   ranks is deterministic for any healthy sampler. *)
let test_zipf_rank_ordering () =
  let r = Rng.create ~seed:31 in
  let z = Rng.zipf_create ~n:50 ~theta:1.2 in
  let counts = Array.make 50 0 in
  for _ = 1 to 50_000 do
    let k = Rng.zipf r z in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 0 beats rank 1" true (counts.(0) > counts.(1));
  check_bool "rank 1 beats rank 3" true (counts.(1) > counts.(3));
  check_bool "rank 3 beats rank 10" true (counts.(3) > counts.(10));
  check_bool "rank 10 beats rank 40" true (counts.(10) > counts.(40))

let test_zipf_theta_zero_uniform () =
  let r = Rng.create ~seed:37 in
  let z = Rng.zipf_create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let k = Rng.zipf r z in
    counts.(k) <- counts.(k) + 1
  done;
  let expect = draws / 10 in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "rank %d within 10%% of uniform (%d)" i c)
        true
        (abs (c - expect) < expect / 10))
    counts

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf draws stay in [0, n)" ~count:300
    QCheck.(triple small_int (int_range 1 1000) (float_range 0.0 3.0))
    (fun (seed, n, theta) ->
      let r = Rng.create ~seed in
      let z = Rng.zipf_create ~n ~theta in
      let k = Rng.zipf r z in
      Rng.zipf_size z = n && k >= 0 && k < n)

(* Same seed, same draw sequence — the samplers sit on top of the
   deterministic bit stream and must not smuggle in outside state. *)
let test_sampler_determinism () =
  let run () =
    let r = Rng.create ~seed:41 in
    let z = Rng.zipf_create ~n:100 ~theta:1.5 in
    List.init 1000 (fun _ ->
        (Rng.zipf r z, Rng.exponential r ~mean:250.0, Rng.int r 7))
  in
  check_bool "identical sequences" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_delay_advances_clock () =
  let e = Engine.create () in
  let final = ref (-1) in
  ignore
    (Engine.spawn e ~name:"p" (fun () ->
         Engine.delay ~cat:Account.User (Time_ns.ms 5);
         Engine.delay ~cat:Account.System (Time_ns.ms 2);
         final := Engine.now ()));
  Engine.run e;
  check_int "clock" (Time_ns.ms 7) !final;
  check_int "engine clock" (Time_ns.ms 7) (Engine.now_of e)

let test_accounting () =
  let e = Engine.create () in
  let proc =
    Engine.spawn e ~name:"p" (fun () ->
        Engine.delay ~cat:Account.User 100;
        Engine.delay ~cat:Account.System 30;
        Engine.delay ~cat:Account.Io_stall 7;
        Engine.delay ~cat:Account.User 1)
  in
  Engine.run e;
  check_int "user" 101 (Account.get proc.Engine.account Account.User);
  check_int "system" 30 (Account.get proc.Engine.account Account.System);
  check_int "io" 7 (Account.get proc.Engine.account Account.Io_stall);
  check_int "total" 138 (Account.total proc.Engine.account)

let test_interleaving_order () =
  let e = Engine.create () in
  let log = ref [] in
  let say s = log := s :: !log in
  ignore
    (Engine.spawn e ~name:"a" (fun () ->
         say "a0";
         Engine.delay ~cat:Account.User 10;
         say "a10";
         Engine.delay ~cat:Account.User 20;
         say "a30"));
  ignore
    (Engine.spawn e ~name:"b" (fun () ->
         say "b0";
         Engine.delay ~cat:Account.User 15;
         say "b15"));
  Engine.run e;
  Alcotest.(check (list string))
    "event order" [ "a0"; "b0"; "a10"; "b15"; "a30" ] (List.rev !log)

let test_spawn_child_and_self () =
  let e = Engine.create () in
  let names = ref [] in
  ignore
    (Engine.spawn e ~name:"parent" (fun () ->
         names := (Engine.self ()).Engine.name :: !names;
         let _child =
           Engine.spawn_child ~name:"child" (fun () ->
               names := (Engine.self ()).Engine.name :: !names)
         in
         Engine.delay ~cat:Account.User 1));
  Engine.run e;
  Alcotest.(check (list string)) "both ran" [ "parent"; "child" ] (List.rev !names)

let test_stop_halts () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore
    (Engine.spawn e ~name:"ticker" (fun () ->
         while true do
           incr count;
           Engine.delay ~cat:Account.User 10
         done));
  ignore
    (Engine.spawn e ~name:"stopper" (fun () ->
         Engine.delay ~cat:Account.User 100;
         Engine.stop ()));
  Engine.run e;
  check_bool "stopped" true (Engine.stopped e);
  check_bool "ticker bounded" true (!count <= 12)

let test_crash_recorded () =
  let e = Engine.create () in
  ignore (Engine.spawn e ~name:"bad" (fun () -> failwith "boom"));
  ignore (Engine.spawn e ~name:"good" (fun () -> Engine.delay ~cat:Account.User 1));
  Engine.run e;
  match Engine.crashes e with
  | [ (name, Failure msg) ] ->
      Alcotest.(check string) "name" "bad" name;
      Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected exactly one crash"

let test_not_in_simulation () =
  Alcotest.check_raises "now outside" Engine.Not_in_simulation (fun () ->
      ignore (Engine.now ()))

let test_max_time_cap () =
  let e = Engine.create ~max_time:(Time_ns.ms 1) () in
  let count = ref 0 in
  ignore
    (Engine.spawn e ~name:"runaway" (fun () ->
         while true do
           incr count;
           Engine.delay ~cat:Account.User (Time_ns.us 100)
         done));
  Engine.run e;
  check_bool "capped" true (!count <= 11)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"identical runs produce identical schedules" ~count:50
    QCheck.(pair small_int (list (int_bound 50)))
    (fun (nprocs, delays) ->
      QCheck.assume (nprocs >= 1 && nprocs <= 8);
      let run () =
        let e = Engine.create () in
        let log = ref [] in
        for p = 0 to nprocs - 1 do
          ignore
            (Engine.spawn e ~name:(string_of_int p) (fun () ->
                 List.iter
                   (fun d ->
                     Engine.delay ~cat:Account.User ((d + p) mod 17);
                     log := (p, Engine.now ()) :: !log)
                   delays))
        done;
        Engine.run e;
        !log
      in
      run () = run ())

(* Outside a running fiber there is no process to advance: a suspend
   callback runs in the handler while its process is blocked, and a timer
   thunk runs between fibers.  [delay] there must fail loudly, not move the
   blocked process's clock. *)
let test_delay_in_suspend_callback () =
  let e = Engine.create () in
  let p =
    Engine.spawn e ~name:"p" (fun () ->
        Engine.suspend (fun _waker -> Engine.delay ~cat:Account.User 5))
  in
  Alcotest.check_raises "delay in suspend callback" Engine.Not_in_simulation
    (fun () -> Engine.run e);
  check_int "clock unmoved" 0 (Engine.now_of e);
  check_int "nothing charged" 0 (Account.total p.Engine.account)

let test_delay_in_wake_after_thunk () =
  let e = Engine.create () in
  Engine.wake_after e 5 (fun () -> Engine.delay ~cat:Account.User 1);
  Alcotest.check_raises "delay in timer thunk" Engine.Not_in_simulation (fun () ->
      Engine.run e)

let test_negative_delay_raises_in_fiber () =
  let e = Engine.create () in
  let caught = ref false in
  let p =
    Engine.spawn e ~name:"p" (fun () ->
        (try Engine.delay ~cat:Account.User (-1)
         with Invalid_argument _ -> caught := true);
        Engine.delay ~cat:Account.User 3)
  in
  Engine.run e;
  check_bool "raised inside the fiber" true !caught;
  check_int "fiber went on" 3 (Engine.now_of e);
  check_int "only the valid delay charged" 3 (Account.total p.Engine.account);
  check_bool "no crash" true (Engine.crashes e = [])

(* ------------------------------------------------------------------ *)
(* Engine against a reference model                                    *)
(* ------------------------------------------------------------------ *)

(* Random process programs run on [Engine] and on a naive model of its
   semantics in which every delay goes through a list-based event queue
   (scanned for the least (time, sequence) pair).  Delays that the engine
   finishes inline must leave no trace: the same (time, pid, step) log,
   accounts, event count and final clock. *)

type step =
  | Delay of int  (* charged to User when even, System when odd *)
  | Sleep of int  (* suspend, woken by wake_after *)
  | Spawn of step list  (* spawn_child running this program *)
  | Stop

let cat_of d = if d land 1 = 0 then Account.User else Account.System

type outcome = {
  o_log : (int * int * int) list;  (* (time, pid, step index), in order *)
  o_accounts : (int * int * int) list;  (* (pid, user, system), by pid *)
  o_events : int;
  o_now : int;
}

let run_engine ?max_time progs =
  let e = Engine.create ?max_time () in
  let log = ref [] and procs = ref [] in
  let rec body prog () =
    let pid = (Engine.self ()).Engine.pid in
    List.iteri
      (fun i step ->
        log := (Engine.now (), pid, i) :: !log;
        match step with
        | Delay d -> Engine.delay ~cat:(cat_of d) d
        | Sleep d -> Engine.suspend (fun w -> Engine.wake_after e d w)
        | Spawn child ->
            procs := Engine.spawn_child ~name:"child" (body child) :: !procs
        | Stop -> Engine.stop ())
      prog
  in
  List.iter (fun prog -> procs := Engine.spawn e ~name:"p" (body prog) :: !procs) progs;
  Engine.run e;
  let account (p : Engine.proc) =
    ( p.Engine.pid,
      Account.get p.Engine.account Account.User,
      Account.get p.Engine.account Account.System )
  in
  {
    o_log = List.rev !log;
    o_accounts = List.sort compare (List.map account !procs);
    o_events = Engine.events_executed e;
    o_now = Engine.now_of e;
  }

type mproc = {
  m_pid : int;
  mutable m_rest : (int * step) list;
  mutable m_user : int;
  mutable m_system : int;
}

type mevent = M_run of mproc | M_wake of mproc

let run_model ?(max_time = Time_ns.sec 10_000_000) progs =
  let now = ref 0 and seq = ref 0 and executed = ref 0 and stop = ref false in
  let events = ref [] and next_pid = ref 0 and log = ref [] and procs = ref [] in
  let schedule time ev =
    incr seq;
    events := (time, !seq, ev) :: !events
  in
  let spawn prog =
    let p =
      {
        m_pid = !next_pid;
        m_rest = List.mapi (fun i s -> (i, s)) prog;
        m_user = 0;
        m_system = 0;
      }
    in
    incr next_pid;
    procs := p :: !procs;
    schedule !now (M_run p)
  in
  (* run [p] until it blocks or finishes *)
  let rec run p =
    match p.m_rest with
    | [] -> ()
    | (i, s) :: rest -> (
        p.m_rest <- rest;
        log := (!now, p.m_pid, i) :: !log;
        match s with
        | Delay d ->
            if cat_of d = Account.User then p.m_user <- p.m_user + d
            else p.m_system <- p.m_system + d;
            schedule (!now + d) (M_run p)
        | Sleep d -> schedule (!now + d) (M_wake p)
        | Spawn child ->
            spawn child;
            run p
        | Stop ->
            stop := true;
            run p)
  in
  List.iter spawn progs;
  let rec loop () =
    match !events with
    | [] -> ()
    | _ when !stop -> ()
    | first :: rest ->
        let ((time, _, ev) as next) =
          List.fold_left
            (fun ((t0, s0, _) as a) ((t1, s1, _) as b) ->
              if (t1, s1) < (t0, s0) then b else a)
            first rest
        in
        if time > max_time then stop := true
        else begin
          events := List.filter (fun e -> e != next) !events;
          now := time;
          incr executed;
          (match ev with M_run p -> run p | M_wake p -> schedule !now (M_run p));
          loop ()
        end
  in
  loop ();
  {
    o_log = List.rev !log;
    o_accounts =
      List.sort compare (List.map (fun p -> (p.m_pid, p.m_user, p.m_system)) !procs);
    o_events = !executed;
    o_now = !now;
  }

let rec pp_steps steps =
  String.concat "; "
    (List.map
       (function
         | Delay d -> Printf.sprintf "delay %d" d
         | Sleep d -> Printf.sprintf "sleep %d" d
         | Spawn c -> Printf.sprintf "spawn [%s]" (pp_steps c)
         | Stop -> "stop")
       steps)

(* 2-8 fibers; delays of 0-20 ns so ties are common; children one level
   deep.  A third of the cases may stop, a third cap [max_time] low. *)
let engine_case_arb =
  let open QCheck.Gen in
  let steps ~stop ~spawn =
    let rec go depth =
      list_size (int_range 0 8)
        (frequency
           ([ (6, map (fun d -> Delay d) (int_range 0 20));
              (2, map (fun d -> Sleep d) (int_range 0 20)) ]
           @ (if spawn && depth > 0 then [ (1, map (fun c -> Spawn c) (go (depth - 1))) ]
              else [])
           @ if stop then [ (1, return Stop) ] else []))
    in
    go 1
  in
  let gen =
    let* mode = int_range 0 2 in
    let* progs = list_size (int_range 2 8) (steps ~stop:(mode = 1) ~spawn:true) in
    let* cap = int_range 0 60 in
    return (progs, if mode = 2 then Some cap else None)
  in
  QCheck.make gen ~print:(fun (progs, cap) ->
      Printf.sprintf "max_time=%s\n%s"
        (match cap with Some c -> string_of_int c | None -> "default")
        (String.concat "\n" (List.map (fun p -> "[" ^ pp_steps p ^ "]") progs)))

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine matches a list-queue reference model" ~count:500
    engine_case_arb (fun (progs, max_time) ->
      run_engine ?max_time progs = run_model ?max_time progs)

(* ------------------------------------------------------------------ *)
(* Semaphore                                                           *)
(* ------------------------------------------------------------------ *)

let test_semaphore_mutual_exclusion () =
  let e = Engine.create () in
  let sem = Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 4 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
           Semaphore.acquire sem;
           incr inside;
           if !inside > !max_inside then max_inside := !inside;
           Engine.delay ~cat:Account.User 10;
           decr inside;
           Semaphore.release sem))
  done;
  Engine.run e;
  check_int "never two inside" 1 !max_inside

let test_semaphore_fifo () =
  let e = Engine.create () in
  let sem = Semaphore.create 1 in
  let order = ref [] in
  ignore
    (Engine.spawn e ~name:"holder" (fun () ->
         Semaphore.acquire sem;
         Engine.delay ~cat:Account.User 100;
         Semaphore.release sem));
  for i = 1 to 3 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
           (* stagger arrivals *)
           Engine.delay ~cat:Account.User (i * 10);
           Semaphore.acquire sem;
           order := i :: !order;
           Engine.delay ~cat:Account.User 5;
           Semaphore.release sem))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !order)

let test_semaphore_wait_accounting () =
  let e = Engine.create () in
  let sem = Semaphore.create 1 in
  let waiter = ref None in
  ignore
    (Engine.spawn e ~name:"holder" (fun () ->
         Semaphore.acquire sem;
         Engine.delay ~cat:Account.User 100;
         Semaphore.release sem));
  ignore
    (Engine.spawn e ~name:"waiter" (fun () ->
         waiter := Some (Engine.self ());
         Semaphore.acquire sem;
         Semaphore.release sem));
  Engine.run e;
  let p = Option.get !waiter in
  check_int "resource stall measured" 100
    (Account.get p.Engine.account Account.Resource_stall);
  check_int "sem total wait" 100 (Semaphore.total_wait sem);
  check_int "contended count" 1 (Semaphore.contended_acquisitions sem)

let test_semaphore_counting () =
  let e = Engine.create () in
  let sem = Semaphore.create 3 in
  let concurrent = ref 0 and peak = ref 0 in
  for i = 0 to 9 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "c%d" i) (fun () ->
           Semaphore.acquire sem;
           incr concurrent;
           if !concurrent > !peak then peak := !concurrent;
           Engine.delay ~cat:Account.User 10;
           decr concurrent;
           Semaphore.release sem))
  done;
  Engine.run e;
  check_int "peak is capacity" 3 !peak

let test_semaphore_over_release () =
  let sem = Semaphore.create 1 in
  Alcotest.check_raises "over release"
    (Invalid_argument "Semaphore.release(sem): over-release") (fun () ->
      Semaphore.release sem)

(* ------------------------------------------------------------------ *)
(* Mailbox / Condition / Ivar                                          *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let box = Mailbox.create () in
  let got = ref [] in
  ignore
    (Engine.spawn e ~name:"recv" (fun () ->
         for _ = 1 to 3 do
           got := Mailbox.recv box :: !got
         done));
  ignore
    (Engine.spawn e ~name:"send" (fun () ->
         Engine.delay ~cat:Account.User 10;
         Mailbox.send box 1;
         Mailbox.send box 2;
         Engine.delay ~cat:Account.User 10;
         Mailbox.send box 3));
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_nonblocking_when_full () =
  let e = Engine.create () in
  let box = Mailbox.create () in
  ignore
    (Engine.spawn e ~name:"p" (fun () ->
         Mailbox.send box "x";
         check_bool "try_recv" true (Mailbox.try_recv box = Some "x");
         check_bool "empty now" true (Mailbox.try_recv box = None)));
  Engine.run e

let test_condition_broadcast () =
  let e = Engine.create () in
  let cond = Condition.create () in
  let woke = ref 0 in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
           Condition.wait cond;
           incr woke))
  done;
  ignore
    (Engine.spawn e ~name:"b" (fun () ->
         Engine.delay ~cat:Account.User 50;
         Condition.broadcast cond));
  Engine.run e;
  check_int "all woke" 3 !woke

let test_condition_signal_wakes_one () =
  let e = Engine.create () in
  let cond = Condition.create () in
  let woke = ref 0 in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
           Condition.wait cond;
           incr woke))
  done;
  ignore
    (Engine.spawn e ~name:"s" (fun () ->
         Engine.delay ~cat:Account.User 50;
         Condition.signal cond;
         Engine.delay ~cat:Account.User 50;
         Engine.stop ()));
  Engine.run e;
  check_int "one woke" 1 !woke

let test_ivar () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  ignore (Engine.spawn e ~name:"reader" (fun () -> got := Ivar.read iv));
  ignore
    (Engine.spawn e ~name:"writer" (fun () ->
         Engine.delay ~cat:Account.User 30;
         Ivar.fill iv 42));
  Engine.run e;
  check_int "read value" 42 !got;
  check_bool "filled" true (Ivar.is_filled iv);
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Ivar.fill iv 1)

let test_ivar_read_after_fill_is_immediate () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  ignore
    (Engine.spawn e ~name:"p" (fun () ->
         Ivar.fill iv "v";
         let t0 = Engine.now () in
         let v = Ivar.read iv in
         Alcotest.(check string) "value" "v" v;
         check_int "no time passed" t0 (Engine.now ())));
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Time / Account                                                      *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "sec" 1_000_000_000 (Time_ns.sec 1);
  Alcotest.(check (float 1e-9)) "to_sec" 1.5 (Time_ns.to_sec_f (Time_ns.ms 1500));
  Alcotest.(check string) "pp ms" "2.00ms" (Time_ns.to_string (Time_ns.ms 2))

let test_account_rejects_negative () =
  let a = Account.create () in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Account.add: negative duration") (fun () ->
      Account.add a Account.User (-1))

let test_time_pp_units () =
  Alcotest.(check string) "ns" "17ns" (Time_ns.to_string 17);
  Alcotest.(check string) "us" "4.20us" (Time_ns.to_string 4200);
  Alcotest.(check string) "s" "1.500s" (Time_ns.to_string (Time_ns.ms 1500))

let test_series_single_sample () =
  let tl = Telemetry.create () in
  Telemetry.register_gauge tl ~name:"one" (fun () -> 42.0);
  Telemetry.scrape tl ~time:5;
  check_bool "renders" true
    (String.length (Telemetry.sparkline tl "one") > 0);
  check_bool "mean = value" true
    (match Telemetry.summary_of tl "one" with
    | Some s -> s.Telemetry.ts_mean = 42.0
    | None -> false)

let test_account_busy_total () =
  let a = Account.create () in
  Account.add a Account.User 10;
  Account.add a Account.Sleep 100;
  Account.add a Account.Io_stall 5;
  check_int "total" 115 (Account.total a);
  check_int "busy excludes sleep" 15 (Account.busy_total a);
  Account.reset a;
  check_int "reset" 0 (Account.total a)

(* ------------------------------------------------------------------ *)
(* Telemetry series                                                    *)
(* ------------------------------------------------------------------ *)

let scrape_values ?capacity values =
  (* One gauge driven through a ref, scraped once per value. *)
  let tl = Telemetry.create ?capacity () in
  let v = ref 0.0 in
  Telemetry.register_gauge tl ~name:"x" (fun () -> !v);
  List.iteri
    (fun i value ->
      v := value;
      Telemetry.scrape tl ~time:(i * 100))
    values;
  tl

let test_series_stats () =
  let tl = Telemetry.create () in
  Telemetry.register_gauge tl ~name:"free" (fun () -> 0.0);
  check_bool "empty summary" true
    (match Telemetry.summary_of tl "free" with
    | Some s -> s.Telemetry.ts_samples = 0 && s.Telemetry.ts_min = 0.0
    | None -> false);
  let tl = scrape_values [ 10.0; 30.0; 20.0 ] in
  match Telemetry.summary_of tl "x" with
  | None -> Alcotest.fail "series missing"
  | Some s ->
      check_int "length" 3 s.Telemetry.ts_samples;
      check_bool "min" true (s.Telemetry.ts_min = 10.0);
      check_bool "max" true (s.Telemetry.ts_max = 30.0);
      check_bool "mean" true (s.Telemetry.ts_mean = 20.0);
      check_bool "last" true (s.Telemetry.ts_last = 20.0)

let test_series_ordering_enforced () =
  let tl = Telemetry.create () in
  Telemetry.register_gauge tl ~name:"x" (fun () -> 1.0);
  Telemetry.scrape tl ~time:100;
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Telemetry.scrape: time went backwards") (fun () ->
      Telemetry.scrape tl ~time:50)

let test_series_sparkline () =
  let tl = Telemetry.create () in
  Telemetry.register_gauge tl ~name:"x" (fun () -> 0.0);
  check_bool "empty render" true (Telemetry.sparkline tl "x" = "(no samples)");
  let tl = scrape_values (List.init 100 float_of_int) in
  let line = Telemetry.sparkline ~width:10 tl "x" in
  check_bool "nonempty" true (String.length line > 0);
  (* a rising series renders with the last bucket at full height *)
  let is_suffix suffix str =
    let ls = String.length suffix and l = String.length str in
    l >= ls && String.sub str (l - ls) ls = suffix
  in
  check_bool "rises to full block" true (is_suffix "\xe2\x96\x88" line)

let prop_series_mean_bounded =
  QCheck.Test.make ~name:"series mean lies between min and max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun values ->
      let tl = scrape_values values in
      match Telemetry.summary_of tl "x" with
      | Some s ->
          s.Telemetry.ts_min <= s.Telemetry.ts_mean +. 1e-9
          && s.Telemetry.ts_mean <= s.Telemetry.ts_max +. 1e-9
      | None -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "memhog_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop releases values" `Quick
            test_heap_releases_popped_values;
          Alcotest.test_case "clear releases values" `Quick
            test_heap_clear_releases_values;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "exponential mean" `Quick
            test_exponential_empirical_mean;
          Alcotest.test_case "zipf rank ordering" `Quick test_zipf_rank_ordering;
          Alcotest.test_case "zipf theta 0 uniform" `Quick
            test_zipf_theta_zero_uniform;
          Alcotest.test_case "determinism" `Quick test_sampler_determinism;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
          Alcotest.test_case "accounting" `Quick test_accounting;
          Alcotest.test_case "interleaving" `Quick test_interleaving_order;
          Alcotest.test_case "spawn child, self" `Quick test_spawn_child_and_self;
          Alcotest.test_case "stop" `Quick test_stop_halts;
          Alcotest.test_case "crash recorded" `Quick test_crash_recorded;
          Alcotest.test_case "not in simulation" `Quick test_not_in_simulation;
          Alcotest.test_case "max time cap" `Quick test_max_time_cap;
          Alcotest.test_case "delay in suspend callback" `Quick
            test_delay_in_suspend_callback;
          Alcotest.test_case "delay in wake_after thunk" `Quick
            test_delay_in_wake_after_thunk;
          Alcotest.test_case "negative delay raises in fiber" `Quick
            test_negative_delay_raises_in_fiber;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_semaphore_mutual_exclusion;
          Alcotest.test_case "fifo" `Quick test_semaphore_fifo;
          Alcotest.test_case "wait accounting" `Quick test_semaphore_wait_accounting;
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
          Alcotest.test_case "over-release" `Quick test_semaphore_over_release;
        ] );
      ( "mailbox-cond-ivar",
        [
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox try_recv" `Quick test_mailbox_nonblocking_when_full;
          Alcotest.test_case "condition broadcast" `Quick test_condition_broadcast;
          Alcotest.test_case "condition signal" `Quick test_condition_signal_wakes_one;
          Alcotest.test_case "ivar" `Quick test_ivar;
          Alcotest.test_case "ivar immediate" `Quick test_ivar_read_after_fill_is_immediate;
        ] );
      ( "time-account",
        [
          Alcotest.test_case "time units" `Quick test_time_units;
          Alcotest.test_case "account busy" `Quick test_account_busy_total;
          Alcotest.test_case "account negative" `Quick test_account_rejects_negative;
          Alcotest.test_case "time pp" `Quick test_time_pp_units;
          Alcotest.test_case "series single" `Quick test_series_single_sample;
        ] );
      ( "series",
        [
          Alcotest.test_case "stats" `Quick test_series_stats;
          Alcotest.test_case "ordering" `Quick test_series_ordering_enforced;
          Alcotest.test_case "sparkline" `Quick test_series_sparkline;
        ] );
      qsuite "properties"
        [
          prop_heap_sorts;
          prop_rng_float_range;
          prop_rng_int_range;
          prop_exponential_positive;
          prop_zipf_in_range;
          prop_engine_deterministic;
          prop_engine_matches_model;
          prop_series_mean_bounded;
        ];
    ]
