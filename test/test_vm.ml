(* Tests for the virtual-memory subsystem: fault handling, free list and
   rescue, the paging daemon and the releaser, and the PagingDirected
   request interface. *)

open Memhog_sim
module Vm = Memhog_vm
module Os = Vm.Os
module As = Vm.Address_space

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_config =
  {
    Vm.Config.default with
    Vm.Config.total_frames = 64;
    min_freemem = 4;
    desfree = 8;
  }

(* Run [f] as the "main" process of a fresh machine; stop the simulation when
   it finishes so the daemons do not keep the event loop alive. *)
let with_os ?(config = small_config) ?obs f =
  (* Cap simulated time so a genuine deadlock (application blocked while the
     daemons keep polling) terminates instead of spinning forever. *)
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ?obs ~config ~engine () in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () -> f os)));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      if name = "main" then raise e
      else Alcotest.failf "process %s crashed: %s" name (Printexc.to_string e));
  os

let assert_invariants os =
  List.iter
    (fun (what, ok) -> check_bool what true ok)
    (Os.check_invariants os)

(* ------------------------------------------------------------------ *)
(* Address space basics                                                *)
(* ------------------------------------------------------------------ *)

let test_segments_and_bits () =
  let asp = As.create ~pid:0 ~name:"p" in
  let s1 = As.add_segment asp ~name:"a" ~npages:10 ~swap_base:0 ~on_swap:true in
  let s2 = As.add_segment asp ~name:"b" ~npages:5 ~swap_base:40 ~on_swap:false in
  check_int "first segment at vpn 0" 0 s1.As.base_vpn;
  check_int "segment placement" 10 s2.As.base_vpn;
  check_bool "mapped" true (As.mapped asp ~vpn:0 && As.mapped asp ~vpn:14);
  check_bool "unmapped" false (As.mapped asp ~vpn:15 || As.mapped asp ~vpn:(-1));
  Alcotest.check_raises "unmapped read"
    (Invalid_argument "Address_space: vpn 15 is unmapped") (fun () ->
      ignore (As.get_raw asp ~vpn:15));
  check_bool "initial pte swapped" true (As.get_pte asp ~vpn:0 = As.Swapped);
  check_bool "initial pte untouched" true (As.get_pte asp ~vpn:10 = As.Untouched);
  check_int "swap page" 3 (As.swap_page asp ~vpn:3);
  check_int "swap page, second segment" 42 (As.swap_page asp ~vpn:12);
  check_bool "bit starts clear" false (As.bit asp ~vpn:7);
  As.set_bit asp ~vpn:7 true;
  check_bool "bit set" true (As.bit asp ~vpn:7);
  check_bool "neighbours untouched" false (As.bit asp ~vpn:6 || As.bit asp ~vpn:8);
  As.set_bit asp ~vpn:7 false;
  check_bool "bit cleared" false (As.bit asp ~vpn:7)

let prop_bitmap_independent =
  QCheck.Test.make ~name:"bitmap bits are independent" ~count:100
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let asp = As.create ~pid:0 ~name:"p" in
      ignore (As.add_segment asp ~name:"s" ~npages:64 ~swap_base:0 ~on_swap:true);
      As.set_bit asp ~vpn:a true;
      As.bit asp ~vpn:a && not (As.bit asp ~vpn:b))

(* Packed-PTE roundtrip: each of the five states survives encode -> decode
   across the full frame range (0 .. Pte.max_frame), the raw tag/frame
   accessors agree with the variant view, and overwriting an in-transit
   entry drops its ivar from the side table. *)
let prop_pte_roundtrip =
  QCheck.Test.make ~name:"packed pte roundtrip" ~count:500
    QCheck.(pair (int_bound 4) (map (fun n -> abs n land As.Pte.max_frame) int))
    (fun (state, frame) ->
      let asp = As.create ~pid:0 ~name:"p" in
      ignore (As.add_segment asp ~name:"s" ~npages:4 ~swap_base:0 ~on_swap:false);
      let vpn = 2 in
      match state with
      | 0 ->
          As.set_pte asp ~vpn As.Untouched;
          As.get_pte asp ~vpn = As.Untouched
          && As.get_raw asp ~vpn = As.Pte.untouched
      | 1 ->
          As.set_pte asp ~vpn As.Swapped;
          As.get_pte asp ~vpn = As.Swapped
          && As.get_raw asp ~vpn = As.Pte.swapped
      | 2 ->
          As.set_pte asp ~vpn (As.Resident frame);
          As.get_pte asp ~vpn = As.Resident frame
          &&
          let p = As.get_raw asp ~vpn in
          As.Pte.tag p = As.Pte.tag_resident && As.Pte.frame p = frame
      | 3 ->
          As.set_pte asp ~vpn (As.On_free_list frame);
          As.get_pte asp ~vpn = As.On_free_list frame
          &&
          let p = As.get_raw asp ~vpn in
          As.Pte.tag p = As.Pte.tag_on_free_list && As.Pte.frame p = frame
      | _ ->
          let ivar = Ivar.create () in
          As.set_pte asp ~vpn (As.In_transit ivar);
          (match As.get_pte asp ~vpn with
          | As.In_transit iv -> iv == ivar && As.transit_ivar asp ~vpn == ivar
          | _ -> false)
          && As.Pte.tag (As.get_raw asp ~vpn) = As.Pte.tag_in_transit
          && begin
               (* overwriting the in-transit word must clear the side table *)
               As.set_raw asp ~vpn (As.Pte.resident frame);
               match As.transit_ivar asp ~vpn with
               | exception Not_found -> true
               | _ -> false
             end)

(* The page table against the per-segment layout it replaced: each
   segment keeps its own PTE words, residency bits and transit table, and
   a vpn is found by a linear search of the segments.  Layouts of 1-6
   segments of 1-3,000 pages cross leaf boundaries.  Besides mapped vpns,
   every operation is tried on -1, [next_vpn] and [next_vpn + leaf_pages],
   which must read as unmapped, never as another page's entry. *)
type model_seg = {
  m_base : int;
  m_swap : int;
  m_ptes : int array;
  m_bits : bool array;
  m_transit : (int, unit Ivar.t) Hashtbl.t;
}

type pt_op =
  | Pt_set_raw of int * int  (* vpn selector, packed non-transit word *)
  | Pt_set_in_transit of int
  | Pt_get_pte of int
  | Pt_set_bit of int * bool
  | Pt_bit of int
  | Pt_swap_page of int

let pt_op_print = function
  | Pt_set_raw (v, p) -> Printf.sprintf "set_raw %d %d" v p
  | Pt_set_in_transit v -> Printf.sprintf "set_in_transit %d" v
  | Pt_get_pte v -> Printf.sprintf "get_pte %d" v
  | Pt_set_bit (v, b) -> Printf.sprintf "set_bit %d %b" v b
  | Pt_bit v -> Printf.sprintf "bit %d" v
  | Pt_swap_page v -> Printf.sprintf "swap_page %d" v

(* A vpn selector is a position in [0, 1_000_000) scaled to the mapped
   range, or -1, -2, -3 for the three unmapped probes. *)
let pt_op_gen =
  let open QCheck.Gen in
  let sel = frequency [ (9, int_bound 999_999); (1, int_range (-3) (-1)) ] in
  let word =
    map2
      (fun tag frame ->
        if tag = 0 then As.Pte.untouched
        else if tag = 1 then As.Pte.swapped
        else if tag = 2 then As.Pte.resident frame
        else As.Pte.on_free_list frame)
      (int_bound 3) (int_bound 100_000)
  in
  frequency
    [
      (4, map2 (fun v p -> Pt_set_raw (v, p)) sel word);
      (1, map (fun v -> Pt_set_in_transit v) sel);
      (4, map (fun v -> Pt_get_pte v) sel);
      (3, map2 (fun v b -> Pt_set_bit (v, b)) sel bool);
      (3, map (fun v -> Pt_bit v) sel);
      (2, map (fun v -> Pt_swap_page v) sel);
    ]

let pt_case_arb =
  let open QCheck in
  let layout =
    Gen.(
      list_size (1 -- 6)
        (triple (int_range 1 3_000) (int_bound 5_000) bool))
  in
  make
    ~print:(fun (segs, ops) ->
      Printf.sprintf "segments %s; ops %s"
        (Print.(list (triple int int bool)) segs)
        (String.concat "; " (List.map pt_op_print ops)))
    Gen.(pair layout (list_size (0 -- 400) pt_op_gen))

let prop_page_table_matches_model =
  QCheck.Test.make ~name:"page table matches per-segment model" ~count:200
    pt_case_arb (fun (layout, ops) ->
      let asp = As.create ~pid:0 ~name:"p" in
      let swap = ref 0 in
      let model =
        List.mapi
          (fun i (npages, gap, on_swap) ->
            let swap_base = !swap + gap in
            swap := swap_base + npages;
            let seg =
              As.add_segment asp ~name:(string_of_int i) ~npages ~swap_base
                ~on_swap
            in
            {
              m_base = seg.As.base_vpn;
              m_swap = swap_base;
              m_ptes =
                Array.make npages
                  (if on_swap then As.Pte.swapped else As.Pte.untouched);
              m_bits = Array.make npages false;
              m_transit = Hashtbl.create 8;
            })
          layout
      in
      let next = asp.As.next_vpn in
      let find vpn =
        List.find_opt
          (fun m -> vpn >= m.m_base && vpn < m.m_base + Array.length m.m_ptes)
          model
      in
      let vpn_of sel =
        if sel = -1 then -1
        else if sel = -2 then next
        else if sel = -3 then next + As.leaf_pages
        else sel * next / 1_000_000
      in
      let unmapped f =
        match f () with exception Invalid_argument _ -> true | _ -> false
      in
      let step op =
        let vpn =
          match op with
          | Pt_set_raw (v, _) | Pt_set_in_transit v | Pt_get_pte v
          | Pt_set_bit (v, _) | Pt_bit v | Pt_swap_page v ->
              vpn_of v
        in
        match find vpn with
        | None ->
            (not (As.mapped asp ~vpn))
            &&
            (match op with
            | Pt_set_raw (_, p) -> unmapped (fun () -> As.set_raw asp ~vpn p)
            | Pt_set_in_transit _ ->
                unmapped (fun () -> As.set_in_transit asp ~vpn (Ivar.create ()))
            | Pt_get_pte _ ->
                unmapped (fun () -> As.get_pte asp ~vpn)
                && unmapped (fun () -> As.get_raw asp ~vpn)
            | Pt_set_bit (_, b) -> unmapped (fun () -> As.set_bit asp ~vpn b)
            | Pt_bit _ -> unmapped (fun () -> As.bit asp ~vpn)
            | Pt_swap_page _ -> unmapped (fun () -> As.swap_page asp ~vpn))
        | Some m -> (
            let o = vpn - m.m_base in
            As.mapped asp ~vpn
            &&
            match op with
            | Pt_set_raw (_, p) ->
                As.set_raw asp ~vpn p;
                Hashtbl.remove m.m_transit o;
                m.m_ptes.(o) <- p;
                true
            | Pt_set_in_transit _ ->
                let iv = Ivar.create () in
                As.set_in_transit asp ~vpn iv;
                Hashtbl.replace m.m_transit o iv;
                m.m_ptes.(o) <- As.Pte.in_transit;
                true
            | Pt_get_pte _ -> (
                let p = m.m_ptes.(o) in
                As.get_raw asp ~vpn = p
                &&
                match As.get_pte asp ~vpn with
                | As.In_transit iv ->
                    p = As.Pte.in_transit
                    && iv == Hashtbl.find m.m_transit o
                    && As.transit_ivar asp ~vpn == iv
                | As.Untouched -> p = As.Pte.untouched
                | As.Swapped -> p = As.Pte.swapped
                | As.Resident f -> p = As.Pte.resident f
                | As.On_free_list f -> p = As.Pte.on_free_list f)
            | Pt_set_bit (_, b) ->
                As.set_bit asp ~vpn b;
                m.m_bits.(o) <- b;
                true
            | Pt_bit _ -> As.bit asp ~vpn = m.m_bits.(o)
            | Pt_swap_page _ -> As.swap_page asp ~vpn = m.m_swap + o)
      in
      List.iter
        (fun op ->
          if not (step op) then
            QCheck.Test.fail_reportf "%s disagrees (next_vpn %d)"
              (pt_op_print op) next)
        ops;
      let resident =
        List.fold_left
          (fun n m ->
            Array.fold_left
              (fun n p ->
                if As.Pte.tag p = As.Pte.tag_resident then n + 1 else n)
              n m.m_ptes)
          0 model
      in
      As.resident_pages asp = resident)

(* Mapping a small segment after a large one adds leaves and copies no
   entry: 4 pages after MATVEC's 25,600-page matrix (paper machine). *)
let test_add_segment_copies_no_entries () =
  let asp = As.create ~pid:0 ~name:"p" in
  ignore (As.add_segment asp ~name:"a" ~npages:25_600 ~swap_base:0 ~on_swap:true);
  let before = Gc.allocated_bytes () in
  ignore (As.add_segment asp ~name:"x" ~npages:4 ~swap_base:25_600 ~on_swap:true);
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  if words >= 2_000. then
    Alcotest.failf "adding 4 pages allocated %.0f words (limit 2,000)" words;
  check_bool "old entries kept" true (As.get_pte asp ~vpn:25_599 = As.Swapped);
  check_bool "new entries mapped" true (As.get_pte asp ~vpn:25_603 = As.Swapped)

(* ------------------------------------------------------------------ *)
(* Free list                                                           *)
(* ------------------------------------------------------------------ *)

module Fl = Vm.Free_list

(* The head frame leaves the list held, or -1 when the list is empty. *)
let take fl =
  match Fl.head fl with
  | Some f ->
      Fl.set fl f Fl.Held;
      f.Fl.idx
  | None -> -1

let test_free_list_fifo_and_remove () =
  let fl = Fl.create 8 in
  let frames = Fl.frames fl in
  Alcotest.(check (list int))
    "created free, in index order" [ 0; 1; 2; 3; 4; 5; 6; 7; -1 ]
    (List.init 9 (fun _ -> take fl));
  Fl.set fl frames.(3) Fl.Free;
  Fl.set fl frames.(5) Fl.Rescuable_releaser;
  Fl.set fl frames.(1) Fl.Free;
  check_int "len" 3 (Fl.length fl);
  (* a rescue takes a frame from the middle *)
  Fl.set fl frames.(5) Fl.Resident;
  check_int "len after remove" 2 (Fl.length fl);
  (* a listed frame that loses its page keeps its place *)
  Fl.set fl frames.(3) Fl.Rescuable_daemon;
  Fl.set fl frames.(3) Fl.Free;
  Alcotest.(check (list int)) "fifo" [ 3; 1; -1 ] (List.init 3 (fun _ -> take fl));
  check_int "held" 7 (Fl.count fl Fl.Held);
  check_int "resident" 1 (Fl.count fl Fl.Resident);
  check_bool "conserved" true (Fl.conserved fl ~resident:1);
  Alcotest.check_raises "no move to the same state"
    (Invalid_argument "Free_list.set: the frame is in that state")
    (fun () -> Fl.set fl frames.(5) Fl.Resident)

let prop_free_list_model =
  (* Compare against a list model under random list/take/remove: a frame
     off the list joins its tail in a listed state, the head is taken
     (held), and a listed frame is removed from anywhere (resident). *)
  QCheck.Test.make ~name:"free list behaves like a FIFO with removal" ~count:200
    QCheck.(list (pair (int_bound 2) (int_bound 15)))
    (fun ops ->
      let fl = Fl.create 16 in
      let frames = Fl.frames fl in
      let model = ref (List.init 16 Fun.id) and resident = ref 0 in
      List.iter
        (fun (op, i) ->
          let f = frames.(i) in
          let listed = Fl.listed (Fl.state f) in
          match op with
          | 0 ->
              if not listed then begin
                if Fl.state f = Fl.Resident then decr resident;
                Fl.set fl f (if i mod 2 = 0 then Fl.Free else Fl.Rescuable_daemon);
                model := !model @ [ i ]
              end
          | 1 -> (
              match (take fl, !model) with
              | -1, [] -> ()
              | g, m :: rest when g = m -> model := rest
              | _ -> failwith "model mismatch on take")
          | _ ->
              if listed then begin
                Fl.set fl f Fl.Resident;
                incr resident;
                model := List.filter (fun x -> x <> i) !model
              end)
        ops;
      let order = ref [] in
      Fl.iter fl (fun f -> order := f.Fl.idx :: !order);
      List.rev !order = !model
      && Fl.length fl = List.length !model
      && Fl.conserved fl ~resident:!resident)

(* ------------------------------------------------------------------ *)
(* Fault handling                                                      *)
(* ------------------------------------------------------------------ *)

let test_hard_then_fast () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"data" ~bytes:(10 * 16384) ~on_swap:true in
        let t0 = Engine.now () in
        check_bool "first touch is hard" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Hard);
        check_bool "hard fault takes disk time" true
          (Engine.now () - t0 > Time_ns.ms 1);
        check_bool "second touch fast" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Fast);
        check_int "rss" 1 asp.As.rss;
        check_bool "bit set" true (Os.page_resident asp ~vpn:seg.As.base_vpn);
        check_int "one hard fault" 1 asp.As.stats.Vm.Vm_stats.hard_faults)
  in
  assert_invariants os

let test_zero_fill () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"heap" ~bytes:16384 ~on_swap:false in
        let t0 = Engine.now () in
        check_bool "zero filled" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Zero_filled);
        check_bool "no disk time" true (Engine.now () - t0 < Time_ns.ms 1);
        check_int "no hard faults" 0 asp.As.stats.Vm.Vm_stats.hard_faults;
        check_int "one zero fill" 1 asp.As.stats.Vm.Vm_stats.zero_fills)
  in
  ignore (Os.swap os);
  check_int "no swap reads" 0 (Memhog_disk.Swap.page_reads (Os.swap os))

let test_write_marks_dirty_and_writeback_on_release () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:true);
        ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + 1) ~write:false);
        Os.release_request os asp
          ~vpns:[| seg.As.base_vpn; seg.As.base_vpn + 1 |];
        (* give the releaser time to write back and free *)
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
        check_int "both freed" 2 asp.As.stats.Vm.Vm_stats.freed_by_releaser;
        check_int "one writeback (dirty page only)" 1
          asp.As.stats.Vm.Vm_stats.writebacks)
  in
  check_int "swap writes" 1 (Memhog_disk.Swap.page_writes (Os.swap os))

let test_memory_fills_then_daemon_steals () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"hog" in
        let seg =
          Os.map_segment os asp ~name:"big" ~bytes:(128 * 16384) ~on_swap:true
        in
        for i = 0 to 127 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        check_bool "rss bounded by memory" true (asp.As.rss <= 64);
        check_int "all pages faulted" 128 asp.As.stats.Vm.Vm_stats.hard_faults)
  in
  check_bool "daemon stole pages" true
    ((Os.global_stats os).Vm.Vm_stats.daemon_pages_stolen > 0);
  check_bool "daemon activated" true
    ((Os.global_stats os).Vm.Vm_stats.daemon_activations > 0);
  assert_invariants os

let test_soft_faults_under_pressure () =
  (* A small hot set re-touched while a stream causes daemon invalidations:
     the hot set sees soft faults (software ref bits).  Use a small scan
     batch so a full clock pass takes several daemon ticks, leaving a window
     in which invalidated hot pages are re-referenced before being stolen. *)
  let os =
    with_os ~config:{ small_config with Vm.Config.daemon_batch = 8 } (fun os ->
        let asp = Os.new_process os ~name:"hog" in
        let hot = Os.map_segment os asp ~name:"hot" ~bytes:(4 * 16384) ~on_swap:true in
        let big =
          Os.map_segment os asp ~name:"big" ~bytes:(512 * 16384) ~on_swap:true
        in
        for round = 0 to 7 do
          for i = 0 to 63 do
            (* keep the hot set genuinely hot: re-reference it between
               daemon passes, so invalidations hit pages still in use *)
            if i mod 8 = 0 then
              for h = 0 to 3 do
                ignore (Os.touch os asp ~vpn:(hot.As.base_vpn + h) ~write:false)
              done;
            ignore
              (Os.touch os asp ~vpn:(big.As.base_vpn + (round * 64) + i) ~write:false)
          done
        done;
        check_bool "invalidations happened" true
          (asp.As.stats.Vm.Vm_stats.invalidations > 0);
        check_bool "soft faults happened" true
          (asp.As.stats.Vm.Vm_stats.soft_faults > 0))
  in
  assert_invariants os

let test_hw_ref_bits_no_soft_faults () =
  let config =
    { small_config with Vm.Config.hw_ref_bits = true; daemon_batch = 8 }
  in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"hog" in
        let hot = Os.map_segment os asp ~name:"hot" ~bytes:(4 * 16384) ~on_swap:true in
        let big =
          Os.map_segment os asp ~name:"big" ~bytes:(512 * 16384) ~on_swap:true
        in
        for round = 0 to 7 do
          for i = 0 to 63 do
            if i mod 8 = 0 then
              for h = 0 to 3 do
                ignore (Os.touch os asp ~vpn:(hot.As.base_vpn + h) ~write:false)
              done;
            ignore
              (Os.touch os asp ~vpn:(big.As.base_vpn + (round * 64) + i) ~write:false)
          done
        done;
        check_int "no soft faults with hardware bits" 0
          asp.As.stats.Vm.Vm_stats.soft_faults;
        check_int "no invalidations" 0 asp.As.stats.Vm.Vm_stats.invalidations)
  in
  check_bool "daemon still steals" true
    ((Os.global_stats os).Vm.Vm_stats.daemon_pages_stolen > 0)

(* ------------------------------------------------------------------ *)
(* Release / rescue                                                    *)
(* ------------------------------------------------------------------ *)

let test_release_frees_and_rescues () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(10 * 16384) ~on_swap:true in
        for i = 0 to 9 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        let free_before = Os.free_pages os in
        Os.release_request os asp
          ~vpns:(Array.init 10 (fun i -> seg.As.base_vpn + i));
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "pages returned" (free_before + 10) (Os.free_pages os);
        check_int "rss dropped" 0 asp.As.rss;
        check_bool "bit cleared" false (Os.page_resident asp ~vpn:seg.As.base_vpn);
        (* rescue: contents still on the free list *)
        check_bool "rescued" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false
          = Os.Rescued Vm.Vm_stats.Releaser);
        check_int "rescue recorded" 1 asp.As.stats.Vm.Vm_stats.rescued_releaser;
        check_int "no extra hard fault" 10 asp.As.stats.Vm.Vm_stats.hard_faults)
  in
  assert_invariants os

let test_release_skipped_when_retouch () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        (* Touch again before the releaser acts: sets the bit, vetoing it. *)
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "release skipped" 1 asp.As.stats.Vm.Vm_stats.releases_skipped;
        check_int "nothing freed" 0 asp.As.stats.Vm.Vm_stats.freed_by_releaser;
        check_int "still resident" 1 asp.As.rss)
  in
  assert_invariants os

let test_released_page_lost_after_reallocation () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        let big = Os.map_segment os asp ~name:"big" ~bytes:(80 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        (* Fill memory so the freed frame is reallocated. *)
        for i = 0 to 79 do
          ignore (Os.touch os asp ~vpn:(big.As.base_vpn + i) ~write:false)
        done;
        check_bool "touch is hard (content lost)" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Hard);
        check_bool "lost-release recorded" true
          (asp.As.stats.Vm.Vm_stats.lost_releaser >= 1))
  in
  assert_invariants os

let on_free_list asp vpn =
  match As.get_pte asp ~vpn with As.On_free_list _ -> true | _ -> false

(* With rescue disabled no freed page comes back, so every freed page is
   lost, counted against its freer: a clean page when it is freed, a dirty
   one when its writeback completes or when its owner fetches it again,
   whichever comes first. *)
let test_rescue_off_counts_every_loss () =
  let config = { small_config with Vm.Config.rescue_from_free_list = false } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let st = asp.As.stats in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(2 * 16384) ~on_swap:true in
        let big = Os.map_segment os asp ~name:"big" ~bytes:(80 * 16384) ~on_swap:true in
        let dirty = seg.As.base_vpn and clean = seg.As.base_vpn + 1 in
        ignore (Os.touch os asp ~vpn:dirty ~write:true);
        ignore (Os.touch os asp ~vpn:clean ~write:false);
        Os.release_request os asp ~vpns:[| dirty; clean |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        for i = 0 to 79 do
          ignore (Os.touch os asp ~vpn:(big.As.base_vpn + i) ~write:false)
        done;
        check_bool "the dirty page is read back" true
          (Os.touch os asp ~vpn:dirty ~write:false = Os.Hard);
        check_bool "the clean page is read back" true
          (Os.touch os asp ~vpn:clean ~write:false = Os.Hard);
        check_int "both released pages lost" 2 st.Vm.Vm_stats.lost_releaser;
        check_bool "the daemon stole" true (st.Vm.Vm_stats.freed_by_daemon > 0);
        check_int "every stolen page lost" st.Vm.Vm_stats.freed_by_daemon
          st.Vm.Vm_stats.lost_daemon;
        (* A dirty page touched while its write is in flight is abandoned:
           lost then, and not again when the write completes. *)
        let vpn = big.As.base_vpn + 79 in
        ignore (Os.touch os asp ~vpn ~write:true);
        Os.release_request os asp ~vpns:[| vpn |];
        Engine.delay ~cat:Account.Sleep (Time_ns.us 100);
        check_bool "in writeback" true (on_free_list asp vpn);
        check_bool "the page in writeback is read back" true
          (Os.touch os asp ~vpn ~write:false = Os.Hard);
        check_int "abandoned page lost" 3 st.Vm.Vm_stats.lost_releaser;
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "and counted once" 3 st.Vm.Vm_stats.lost_releaser)
  in
  assert_invariants os

(* A freed page comes back through either entry point: a prefetch
   rescues a page the releaser freed, leaving it unvalidated, and a touch
   rescues a page the daemon stole.  Each rescue counts against its freer
   and is one [Rescue] event. *)
let test_rescue_from_either_side () =
  let trace = Trace.create () in
  let released = ref (-1) and stolen = ref (-1) in
  let os =
    with_os ~obs:(Obs.create ~trace ()) (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let st = asp.As.stats in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(80 * 16384) ~on_swap:true in
        let vpn = seg.As.base_vpn in
        released := vpn;
        ignore (Os.touch os asp ~vpn ~write:false);
        Os.release_request os asp ~vpns:[| vpn |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 10);
        check_bool "released page on the free list" true (on_free_list asp vpn);
        check_bool "prefetch rescues it" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false ~vpn
          = Os.P_rescued);
        check_int "the releaser's rescue" 1 st.Vm.Vm_stats.rescued_releaser;
        check_int "a prefetch rescue" 1 st.Vm.Vm_stats.prefetch_rescues;
        check_bool "resident" true
          (Os.page_resident asp ~vpn
          && match As.get_pte asp ~vpn with As.Resident _ -> true | _ -> false);
        check_bool "no TLB entry" false (Vm.Tlb.hit asp.As.tlb ~vpn);
        check_bool "first touch validates" true
          (Os.touch os asp ~vpn ~write:false = Os.Validated);
        (* Touch more pages than memory holds, then let the daemon steal
           back to its target; no allocation follows, so every page it
           left on the free list can still be rescued. *)
        for i = 1 to 79 do
          ignore (Os.touch os asp ~vpn:(vpn + i) ~write:false)
        done;
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        let v = ref (vpn + 79) in
        while not (on_free_list asp !v) do
          decr v
        done;
        stolen := !v;
        check_bool "touch rescues a stolen page" true
          (Os.touch os asp ~vpn:!v ~write:false = Os.Rescued Vm.Vm_stats.Daemon);
        check_int "the daemon's rescue" 1 st.Vm.Vm_stats.rescued_daemon;
        check_int "still one releaser rescue" 1 st.Vm.Vm_stats.rescued_releaser;
        check_int "still one prefetch rescue" 1 st.Vm.Vm_stats.prefetch_rescues)
  in
  let rescues = ref [] in
  Trace.iter trace (fun ~time:_ ~stream:_ ev ->
      match ev with
      | Trace.Rescue { vpn; for_prefetch; _ } ->
          rescues := (vpn, for_prefetch) :: !rescues
      | _ -> ());
  Alcotest.(check (list (pair int bool)))
    "rescue events (vpn, for_prefetch)"
    [ (!released, true); (!stolen, false) ]
    (List.rev !rescues);
  assert_invariants os

(* ------------------------------------------------------------------ *)
(* Prefetch                                                            *)
(* ------------------------------------------------------------------ *)

let test_prefetch_then_validate () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        check_bool "prefetch fetched" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:seg.As.base_vpn = Os.P_fetched);
        check_bool "bit set by prefetch" true
          (Os.page_resident asp ~vpn:seg.As.base_vpn);
        (* Touch after prefetch: cheap validation fault, no I/O. *)
        let reads_before = Memhog_disk.Swap.page_reads (Os.swap os) in
        check_bool "validated" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Validated);
        check_int "no further I/O" reads_before
          (Memhog_disk.Swap.page_reads (Os.swap os));
        check_bool "redundant prefetch" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:seg.As.base_vpn = Os.P_already);
        check_int "useless counted" 1 asp.As.stats.Vm.Vm_stats.prefetches_useless)
  in
  assert_invariants os

let test_prefetch_dropped_when_no_free_memory () =
  let config = { small_config with Vm.Config.min_freemem = 0; desfree = 0 } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(70 * 16384) ~on_swap:true in
        (* Consume every frame (64) by touching 64 pages; daemon is disabled
           by min_freemem = 0. *)
        for i = 0 to 63 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        check_int "memory exhausted" 0 (Os.free_pages os);
        check_bool "prefetch dropped" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:(seg.As.base_vpn + 65) = Os.P_dropped);
        check_int "dropped counted" 1 asp.As.stats.Vm.Vm_stats.prefetches_dropped)
  in
  assert_invariants os

let test_prefetch_race_with_demand_fault () =
  (* Regression: with blocking prefetches (the drop-prefetch ablation), a
     prefetch that waits for a frame gives up the as_lock; a demand fault can
     install the same page meanwhile.  The prefetch must re-check the PTE and
     surrender its frame, not overwrite the resident mapping (which leaked
     the frame and double-counted rss). *)
  let config =
    {
      small_config with
      Vm.Config.min_freemem = 0;
      desfree = 0;
      drop_prefetch_when_low = false;
    }
  in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(70 * 16384) ~on_swap:true in
        (* Exhaust the 64 frames so the prefetch blocks for one. *)
        for i = 0 to 63 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        check_int "memory exhausted" 0 (Os.free_pages os);
        let target = seg.As.base_vpn + 65 in
        ignore
          (Engine.spawn (Os.engine os) ~name:"prefetcher" (fun () ->
               ignore (Os.prefetch os asp ~site:Trace.no_site
                   ~urgent:false ~vpn:target)));
        (* Let the prefetcher reach alloc_frame_blocking and park. *)
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 1);
        ignore
          (Engine.spawn (Os.engine os) ~name:"trigger" (fun () ->
               Engine.delay ~cat:Account.Sleep (Time_ns.ms 2);
               (* Free two frames: one each for the blocked prefetch and the
                  blocked demand fault below. *)
               Os.release_request os asp
                 ~vpns:[| seg.As.base_vpn; seg.As.base_vpn + 1 |]));
        (* Demand-fault the very page the prefetch is waiting to install. *)
        check_bool "demand fault brings the page in" true
          (Os.touch os asp ~vpn:target ~write:false = Os.Hard);
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
        check_int "prefetch noticed it lost the race" 1
          asp.As.stats.Vm.Vm_stats.prefetches_useless;
        check_bool "page resident exactly once" true
          (match As.get_pte asp ~vpn:target with
          | As.Resident _ -> true
          | _ -> false))
  in
  assert_invariants os

(* ------------------------------------------------------------------ *)
(* Shared page info                                                    *)
(* ------------------------------------------------------------------ *)

let test_upper_limit_formula () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(10 * 16384) ~on_swap:true in
        for i = 0 to 4 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        let free = Os.free_pages os in
        check_int "current usage" 5 (Os.shared_current_usage os asp);
        (* Equation 1 with maxrss unlimited *)
        check_int "upper limit" (5 + free - 4) (Os.shared_upper_limit os asp))
  in
  ignore os

let test_maxrss_trim () =
  let config = { small_config with Vm.Config.maxrss = 16 } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(32 * 16384) ~on_swap:true in
        for i = 0 to 31 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        (* Let the daemon trim. *)
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 200);
        check_bool "trimmed to maxrss" true (asp.As.rss <= 16))
  in
  assert_invariants os

let test_release_of_nonresident_pages_is_noop () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        (* release pages that were never touched *)
        Os.release_request os asp ~vpns:(Array.init 4 (fun i -> seg.As.base_vpn + i));
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "all skipped" 4 asp.As.stats.Vm.Vm_stats.releases_skipped;
        check_int "nothing freed" 0 asp.As.stats.Vm.Vm_stats.freed_by_releaser)
  in
  assert_invariants os

let test_release_of_unmapped_addresses_ignored () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let _seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        (* far outside any segment: must not crash the releaser *)
        Os.release_request os asp ~vpns:[| 10_000; 20_000 |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50))
  in
  assert_invariants os

(* Every entry point that takes a vpn, on one just below the first
   segment and one just past the last: a touch raises [Not_found], the
   residency bit reads false, a prefetch does nothing, and a release skips
   the page without counting it. *)
let test_unmapped_vpns_at_every_entry_point () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(3 * 16384) ~on_swap:true in
        let past = seg.As.base_vpn + seg.As.npages in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:true);
        List.iter
          (fun vpn ->
            Alcotest.check_raises "touch" Not_found (fun () ->
                ignore (Os.touch os asp ~vpn ~write:false));
            check_bool "page_resident" false (Os.page_resident asp ~vpn);
            check_bool "prefetch" true
              (Os.prefetch os asp ~site:Trace.no_site ~urgent:false ~vpn
              = Os.P_already))
          [ -1; past ];
        Os.release_request os asp ~vpns:[| -1; past |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        let st = asp.As.stats in
        check_int "nothing freed" 0 st.Vm.Vm_stats.freed_by_releaser;
        check_int "nothing skipped" 0 st.Vm.Vm_stats.releases_skipped;
        check_int "nothing fetched" 0 st.Vm.Vm_stats.prefetches_issued;
        check_int "mapped page still resident" 1 asp.As.rss)
  in
  assert_invariants os

let test_releaser_chunks () =
  (* The releaser frees a request in [releaser_batch] (32) chunks, each
     holding the locks for [releaser_page_ns] (250 ns) a page: a 100-page
     clean request goes in groups of 32, 32, 32 and 4, 8,000 ns apart,
     and a 10-page request posted 8,000 ns after it waits for the fourth
     group. *)
  let config = { small_config with Vm.Config.total_frames = 256 } in
  let trace = Trace.create () in
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~obs:(Obs.create ~trace ()) ~config ~engine () in
  let base = ref 0 in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             let asp = Os.new_process os ~name:"app" in
             let seg =
               Os.map_segment os asp ~name:"d" ~bytes:(110 * 16384) ~on_swap:true
             in
             base := seg.As.base_vpn;
             for i = 0 to 109 do
               ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
             done;
             Engine.delay ~cat:Account.Sleep (Time_ns.ms 10);
             Os.release_request os asp
               ~vpns:(Array.init 100 (fun i -> seg.As.base_vpn + i));
             Engine.delay ~cat:Account.Sleep 8_000;
             Os.release_request os asp
               ~vpns:(Array.init 10 (fun i -> seg.As.base_vpn + 100 + i));
             Engine.delay ~cat:Account.Sleep (Time_ns.ms 10))));
  Engine.run engine;
  (* (time, pages freed then, pages of the second request among them) *)
  let groups = ref [] in
  Trace.iter trace (fun ~time ~stream:_ ev ->
      match ev with
      | Trace.Releaser_free { vpn; _ } -> (
          let second = if vpn >= !base + 100 then 1 else 0 in
          match !groups with
          | (t, n, s) :: rest when t = time ->
              groups := (t, n + 1, s + second) :: rest
          | _ -> groups := (time, 1, second) :: !groups)
      | _ -> ());
  match List.rev !groups with
  | [ (t0, 32, 0); (t1, 32, 0); (t2, 32, 0); (t3, 4, 0); (t4, 10, 10) ] ->
      check_int "second chunk" 8_000 (t1 - t0);
      check_int "third chunk" 8_000 (t2 - t1);
      check_int "fourth chunk" 8_000 (t3 - t2);
      check_int "the second request right after the fourth chunk" 1_000
        (t4 - t3)
  | gs ->
      Alcotest.failf "releaser free groups (time, pages, second request): %s"
        (String.concat "; "
           (List.map (fun (t, n, s) -> Printf.sprintf "(%d, %d, %d)" t n s) gs))

let test_double_release_idempotent () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(2 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "freed once" 1 asp.As.stats.Vm.Vm_stats.freed_by_releaser;
        check_int "second skipped" 1 asp.As.stats.Vm.Vm_stats.releases_skipped)
  in
  assert_invariants os

let test_two_processes_isolated_page_tables () =
  let os =
    with_os (fun os ->
        let a = Os.new_process os ~name:"a" in
        let b = Os.new_process os ~name:"b" in
        let sa = Os.map_segment os a ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        let sb = Os.map_segment os b ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.touch os a ~vpn:sa.As.base_vpn ~write:true);
        ignore (Os.touch os b ~vpn:sb.As.base_vpn ~write:false);
        check_int "a rss" 1 a.As.rss;
        check_int "b rss" 1 b.As.rss;
        (* same vpn numbers in different spaces are different pages *)
        check_bool "distinct swap pages" true
          (As.swap_page a ~vpn:sa.As.base_vpn <> As.swap_page b ~vpn:sb.As.base_vpn))
  in
  assert_invariants os

let test_shared_page_updates_are_lazy () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"a" in
        let hog = Os.new_process os ~name:"hog" in
        let sa = Os.map_segment os asp ~name:"d" ~bytes:(8 * 16384) ~on_swap:true in
        let sh = Os.map_segment os hog ~name:"d" ~bytes:(32 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:sa.As.base_vpn ~write:false);
        let limit_before = Os.shared_upper_limit os asp in
        (* another process consumes memory: asp's limit is NOT updated... *)
        for i = 0 to 31 do
          ignore (Os.touch os hog ~vpn:(sh.As.base_vpn + i) ~write:false)
        done;
        check_int "limit stale until own activity" limit_before
          (Os.shared_upper_limit os asp);
        (* ...until it has memory-system activity of its own *)
        ignore (Os.touch os asp ~vpn:(sa.As.base_vpn + 1) ~write:false);
        check_bool "limit dropped after activity" true
          (Os.shared_upper_limit os asp < limit_before))
  in
  ignore os

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tlb_basics () =
  let tlb = Vm.Tlb.create ~entries:4 in
  check_bool "cold miss" false (Vm.Tlb.access tlb ~vpn:10);
  check_bool "warm hit" true (Vm.Tlb.access tlb ~vpn:10);
  (* direct-mapped conflict: 14 maps to the same slot as 10 *)
  check_bool "conflict miss" false (Vm.Tlb.access tlb ~vpn:14);
  check_bool "victim evicted" false (Vm.Tlb.access tlb ~vpn:10);
  Vm.Tlb.invalidate tlb ~vpn:10;
  check_bool "invalidated" false (Vm.Tlb.hit tlb ~vpn:10);
  check_int "misses counted" 3 (Vm.Tlb.misses tlb);
  check_int "hits counted" 1 (Vm.Tlb.hits tlb);
  Alcotest.check_raises "power of two"
    (Invalid_argument "Tlb.create: entries must be a positive power of two")
    (fun () -> ignore (Vm.Tlb.create ~entries:3))

let test_prefetch_makes_no_tlb_entry () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.prefetch os asp ~site:Trace.no_site
            ~urgent:false ~vpn:seg.As.base_vpn);
        check_bool "no TLB entry after prefetch" false
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn);
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        check_bool "TLB entry after validation" true
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn))
  in
  ignore os

let test_prefetch_fills_tlb_when_enabled () =
  let config = { small_config with Vm.Config.prefetch_fills_tlb = true } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.prefetch os asp ~site:Trace.no_site
            ~urgent:false ~vpn:seg.As.base_vpn);
        check_bool "TLB entry installed by prefetch (ablation)" true
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn))
  in
  ignore os

let test_tlb_flush () =
  let tlb = Vm.Tlb.create ~entries:8 in
  for v = 0 to 7 do
    ignore (Vm.Tlb.access tlb ~vpn:v)
  done;
  Vm.Tlb.flush tlb;
  for v = 0 to 7 do
    check_bool "flushed" false (Vm.Tlb.hit tlb ~vpn:v)
  done

let test_prefetch_of_unmapped_address () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let _seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        check_bool "unmapped prefetch is a harmless no-op" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:99_999 = Os.P_already))
  in
  ignore os

let test_daemon_invalidation_clears_tlb () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(128 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        check_bool "entry present" true (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn);
        (* stream to trigger daemon passes *)
        for i = 1 to 127 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
        check_bool "entry invalidated under pressure" false
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn))
  in
  ignore os

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(* The paging daemon checks frame conservation at every tick.  An rss
   counter wrong from 10.5 ms to 13.5 ms passes every end-of-run check but
   the in-run one, which names the first tick in that window: the idle
   daemon ticks every millisecond. *)
let test_conservation_checked_every_tick () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:false in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Engine.delay ~cat:Account.Sleep (Time_ns.us 10_500 - Engine.now ());
        asp.As.rss <- asp.As.rss + 1;
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 3);
        asp.As.rss <- asp.As.rss - 1;
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 3))
  in
  match List.filter (fun (_, ok) -> not ok) (Os.check_invariants os) with
  | [ (name, _) ] ->
      Alcotest.(check string)
        "the in-run check names the first tick in the window"
        ("frame conservation held at every paging-daemon tick: first broken at "
        ^ Time_ns.to_string (Time_ns.ms 11))
        name
  | failed ->
      Alcotest.failf "expected the in-run check alone to fail, got [%s]"
        (String.concat "; " (List.map fst failed))

(* The random loads draw the machine's ablation switches too: rescue off
   (its writeback and abandon transitions), hardware reference bits, and
   prefetches that block for memory. *)
let switches = QCheck.(triple bool bool bool)

let switched (rescue, hw, drop) =
  {
    small_config with
    Vm.Config.rescue_from_free_list = rescue;
    hw_ref_bits = hw;
    drop_prefetch_when_low = drop;
  }

let prop_invariants_random_load =
  QCheck.Test.make ~name:"VM invariants hold under random touch/release/prefetch"
    ~count:30
    QCheck.(pair switches (list (pair (int_bound 2) (int_bound 95))))
    (fun (sw, ops) ->
      let os =
        with_os ~config:(switched sw) (fun os ->
            let asp = Os.new_process os ~name:"app" in
            let seg =
              Os.map_segment os asp ~name:"d" ~bytes:(96 * 16384) ~on_swap:true
            in
            List.iter
              (fun (op, page) ->
                let vpn = seg.As.base_vpn + page in
                match op with
                | 0 -> ignore (Os.touch os asp ~vpn ~write:(page mod 3 = 0))
                | 1 ->
                    ignore
                      (Os.prefetch os asp ~site:Trace.no_site ~urgent:false ~vpn)
                | _ -> Os.release_request os asp ~vpns:[| vpn |])
              ops;
            Engine.delay ~cat:Account.Sleep (Time_ns.ms 20))
      in
      List.for_all snd (Os.check_invariants os))

let prop_invariants_two_processes =
  (* Two processes interleave touches/releases: isolation and global
     invariants must survive the contention. *)
  QCheck.Test.make
    ~name:"VM invariants hold with two competing processes" ~count:20
    QCheck.(pair switches (list (tup3 bool (int_bound 2) (int_bound 63))))
    (fun (sw, ops) ->
      let os =
        with_os ~config:(switched sw) (fun os ->
            let a = Os.new_process os ~name:"a" in
            let b = Os.new_process os ~name:"b" in
            let sa = Os.map_segment os a ~name:"d" ~bytes:(64 * 16384) ~on_swap:true in
            let sb = Os.map_segment os b ~name:"d" ~bytes:(64 * 16384) ~on_swap:true in
            List.iter
              (fun (which, op, page) ->
                let asp, seg = if which then (a, sa) else (b, sb) in
                let vpn = seg.As.base_vpn + page in
                match op with
                | 0 -> ignore (Os.touch os asp ~vpn ~write:(page mod 2 = 0))
                | 1 ->
                    ignore
                      (Os.prefetch os asp ~site:Trace.no_site ~urgent:false ~vpn)
                | _ -> Os.release_request os asp ~vpns:[| vpn |])
              ops;
            Engine.delay ~cat:Account.Sleep (Time_ns.ms 20))
      in
      List.for_all snd (Os.check_invariants os))

let () =
  Alcotest.run "memhog_vm"
    [
      ( "address-space",
        [
          Alcotest.test_case "segments and bits" `Quick test_segments_and_bits;
          Alcotest.test_case "adding a segment copies no entries" `Quick
            test_add_segment_copies_no_entries;
          QCheck_alcotest.to_alcotest prop_page_table_matches_model;
        ] );
      ( "free-list",
        [
          Alcotest.test_case "fifo and remove" `Quick test_free_list_fifo_and_remove;
        ] );
      ( "faults",
        [
          Alcotest.test_case "hard then fast" `Quick test_hard_then_fast;
          Alcotest.test_case "zero fill" `Quick test_zero_fill;
          Alcotest.test_case "dirty writeback" `Quick
            test_write_marks_dirty_and_writeback_on_release;
          Alcotest.test_case "daemon steals when full" `Quick
            test_memory_fills_then_daemon_steals;
          Alcotest.test_case "soft faults under pressure" `Quick
            test_soft_faults_under_pressure;
          Alcotest.test_case "hw ref bits ablation" `Quick
            test_hw_ref_bits_no_soft_faults;
        ] );
      ( "release-rescue",
        [
          Alcotest.test_case "release of non-resident" `Quick
            test_release_of_nonresident_pages_is_noop;
          Alcotest.test_case "release of unmapped" `Quick
            test_release_of_unmapped_addresses_ignored;
          Alcotest.test_case "unmapped vpns at every entry point" `Quick
            test_unmapped_vpns_at_every_entry_point;
          Alcotest.test_case "double release" `Quick test_double_release_idempotent;
          Alcotest.test_case "releaser chunks" `Quick test_releaser_chunks;
          Alcotest.test_case "release then rescue" `Quick test_release_frees_and_rescues;
          Alcotest.test_case "release vetoed by re-touch" `Quick
            test_release_skipped_when_retouch;
          Alcotest.test_case "release lost after reallocation" `Quick
            test_released_page_lost_after_reallocation;
          Alcotest.test_case "rescue from either side" `Quick
            test_rescue_from_either_side;
          Alcotest.test_case "rescue off counts every loss" `Quick
            test_rescue_off_counts_every_loss;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "prefetch then validate" `Quick test_prefetch_then_validate;
          Alcotest.test_case "dropped when memory full" `Quick
            test_prefetch_dropped_when_no_free_memory;
          Alcotest.test_case "unmapped address" `Quick
            test_prefetch_of_unmapped_address;
          Alcotest.test_case "blocking prefetch races demand fault" `Quick
            test_prefetch_race_with_demand_fault;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "basics" `Quick test_tlb_basics;
          Alcotest.test_case "prefetch makes no entry" `Quick
            test_prefetch_makes_no_tlb_entry;
          Alcotest.test_case "prefetch fills when enabled" `Quick
            test_prefetch_fills_tlb_when_enabled;
          Alcotest.test_case "daemon invalidation clears" `Quick
            test_daemon_invalidation_clears_tlb;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
        ] );
      ( "shared-page",
        [
          Alcotest.test_case "upper limit formula" `Quick test_upper_limit_formula;
          Alcotest.test_case "lazy updates" `Quick test_shared_page_updates_are_lazy;
          Alcotest.test_case "process isolation" `Quick
            test_two_processes_isolated_page_tables;
          Alcotest.test_case "maxrss trim" `Quick test_maxrss_trim;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "conservation checked at every tick" `Quick
            test_conservation_checked_every_tick;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bitmap_independent;
            prop_pte_roundtrip;
            prop_free_list_model;
            prop_invariants_random_load;
            prop_invariants_two_processes;
          ]
      );
    ]
