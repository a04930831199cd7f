open Memhog_sim
module Os = Memhog_vm.Os
module As = Memhog_vm.Address_space
module Ir = Memhog_compiler.Ir
module Pir = Memhog_compiler.Pir
module Runtime = Memhog_runtime.Runtime

type stream = {
  sr_rng : Rng.t;
  mutable sr_pos : int;          (* next touch position *)
  sr_ring : int array;           (* pre-drawn page offsets *)
  mutable sr_drawn : int;        (* positions drawn so far *)
}

type t = {
  os : Os.t;
  asp : As.t;
  rt : Runtime.t;
  segs : (string * (As.segment * int (* elem bytes *))) list;
  mutable touches : int;
  mutable main : unit -> unit;
      (* the compiled main computation; set once, by [create] *)
}

let asp t = t.asp
let runtime t = t.rt
let touched_pages t = t.touches

let segment_and_elem t name =
  match List.assoc_opt name t.segs with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "App: unknown array %s" name)

let segment_of_array t name = fst (segment_and_elem t name)

(* ------------------------------------------------------------------ *)
(* Page expansion                                                      *)
(* ------------------------------------------------------------------ *)

(* One array's geometry, resolved per site when the program is compiled. *)
type span = { base_vpn : int; elem_bytes : int; seg_elems : int; page_bytes : int }

let span_of t ~page_bytes array =
  let seg, elem_bytes = segment_and_elem t array in
  {
    base_vpn = seg.As.base_vpn;
    elem_bytes;
    seg_elems = seg.As.npages * page_bytes / elem_bytes;
    page_bytes;
  }

let page_of sp e = e * sp.elem_bytes / sp.page_bytes
let clamp sp e = Int.max 0 (Int.min (sp.seg_elems - 1) e)

(* Enumerate the distinct pages covered by [count] accesses starting at
   element [first] with [stride] elements between accesses.  Pages are
   reported in access order; out-of-bounds accesses are clamped away. *)
let iter_pages sp ~first ~count ~stride f =
  if count > 0 then begin
    if stride = 0 then f (sp.base_vpn + page_of sp (clamp sp first))
    else if abs stride * sp.elem_bytes < sp.page_bytes then begin
      (* dense: the accesses sweep a contiguous range; report each page *)
      let last = first + ((count - 1) * stride) in
      let lo = clamp sp (Int.min first last)
      and hi = clamp sp (Int.max first last) in
      let plo = page_of sp lo and phi = page_of sp hi in
      if stride > 0 then
        for p = plo to phi do
          f (sp.base_vpn + p)
        done
      else
        for p = phi downto plo do
          f (sp.base_vpn + p)
        done
    end
    else begin
      (* sparse: each access may land on its own page *)
      let prev = ref min_int in
      for k = 0 to count - 1 do
        let e = first + (k * stride) in
        if e >= 0 && e < sp.seg_elems then begin
          let p = page_of sp e in
          if p <> !prev then begin
            prev := p;
            f (sp.base_vpn + p)
          end
        end
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Indirect streams                                                    *)
(* ------------------------------------------------------------------ *)

let ring_size = 1024

let new_stream ~seed id =
  {
    sr_rng = Rng.create ~seed:(seed lxor (id * 0x9E3779B9));
    sr_pos = 0;
    sr_ring = Array.make ring_size 0;
    sr_drawn = 0;
  }

(* Page offset (within the array's segment) touched at stream position
   [pos]; draws lazily, in order, so the sequence is deterministic. *)
let stream_page s ~npages pos =
  if pos - s.sr_drawn >= ring_size then
    invalid_arg "App: indirect lookahead exceeds ring size";
  while s.sr_drawn <= pos do
    s.sr_ring.(s.sr_drawn mod ring_size) <- Rng.int s.sr_rng npages;
    s.sr_drawn <- s.sr_drawn + 1
  done;
  s.sr_ring.(pos mod ring_size)

(* ------------------------------------------------------------------ *)
(* Compilation to closures                                             *)
(* ------------------------------------------------------------------ *)

let compute t ns =
  if ns > 0 then begin
    let cpus = Os.cpus t.os in
    Semaphore.acquire cpus;
    Engine.delay ~cat:Account.User ns;
    Semaphore.release cpus
  end

let rec seq = function
  | [] -> ignore
  | [ f ] -> f
  | f :: rest ->
      let g = seq rest in
      fun () ->
        f ();
        g ()

(* Compile [prog] once into closures over the slot array [env].  Segments,
   indirect streams, per-site page callbacks and procedure bodies are
   resolved here, so running a statement hashes nothing and allocates no
   callback. *)
let compile t ~seed ~page_bytes env (prog : Pir.prog) =
  let streams = Hashtbl.create 8 in
  let stream_for id =
    match Hashtbl.find_opt streams id with
    | Some s -> s
    | None ->
        let s = new_stream ~seed id in
        Hashtbl.replace streams id s;
        s
  in
  let procs = Hashtbl.create 8 in
  let directive (d : Pir.directive) on_page =
    let sp = span_of t ~page_bytes d.Pir.d_array in
    let first = d.Pir.d_first and count = d.Pir.d_count and stride = d.Pir.d_stride in
    fun () ->
      iter_pages sp ~first:(first env) ~count:(count env) ~stride:(stride env) on_page
  in
  let rec stmt = function
    | Pir.P_seq ss -> seq (List.map stmt ss)
    | Pir.P_loop { slot; lo; hi; step; body; _ } ->
        let body = stmt body in
        fun () ->
          let h = hi env in
          let v = ref (lo env) in
          while !v < h do
            env.(slot) <- !v;
            body ();
            v := !v + step
          done
    | Pir.P_touch { array; first; count; stride; write } ->
        let sp = span_of t ~page_bytes array in
        let touch vpn =
          t.touches <- t.touches + 1;
          ignore (Os.touch t.os t.asp ~vpn ~write)
        in
        fun () ->
          iter_pages sp ~first:(first env) ~count:(count env) ~stride:(stride env) touch
    | Pir.P_compute { ns } -> fun () -> compute t (ns env)
    | Pir.P_prefetch d ->
        let site = Some d.Pir.d_tag in
        directive d (fun vpn -> Runtime.prefetch_page ?site t.rt ~vpn)
    | Pir.P_release { dir = d; priority } ->
        let tag = d.Pir.d_tag in
        directive d (fun vpn -> Runtime.release_page t.rt ~vpn ~priority ~tag)
    | Pir.P_indirect { array; count; write; lookahead; prefetch; stream } ->
        let seg = segment_of_array t array in
        let base = seg.As.base_vpn and npages = seg.As.npages in
        let s = stream_for stream in
        fun () ->
          for _ = 1 to count env do
            let pos = s.sr_pos in
            s.sr_pos <- pos + 1;
            if prefetch then begin
              let ahead = stream_page s ~npages (pos + lookahead) in
              Runtime.prefetch_page t.rt ~vpn:(base + ahead)
            end;
            let page = stream_page s ~npages pos in
            t.touches <- t.touches + 1;
            ignore (Os.touch t.os t.asp ~vpn:(base + page) ~write)
          done
    | Pir.P_call { proc; binds } ->
        let body = proc_body proc in
        let set values = List.iter2 (fun (s, _) v -> env.(s) <- v) binds values in
        fun () ->
          (* every binding is evaluated in the caller before any is made *)
          let values = List.map (fun (_, rt) -> rt env) binds in
          let saved = List.map (fun (s, _) -> env.(s)) binds in
          set values;
          !body ();
          set saved
  and proc_body name =
    match Hashtbl.find_opt procs name with
    | Some body -> body
    | None ->
        (* the cell is registered before its body compiles, so a
           recursive call refers to it instead of unfolding forever *)
        let body = ref ignore in
        Hashtbl.replace procs name body;
        body := stmt (Pir.find_proc prog name);
        body
  in
  stmt prog.Pir.px_main

(* Names the program reads that no loop, call or parameter binds: with
   nothing to write their slots they would silently read 0. *)
let unbound_slots (prog : Pir.prog) ~params =
  let bound = Array.map (fun name -> List.mem_assoc name params) prog.Pir.px_slots in
  let rec walk = function
    | Pir.P_seq ss -> List.iter walk ss
    | Pir.P_loop { slot; body; _ } ->
        bound.(slot) <- true;
        walk body
    | Pir.P_call { binds; _ } -> List.iter (fun (s, _) -> bound.(s) <- true) binds
    | Pir.P_touch _ | Pir.P_compute _ | Pir.P_prefetch _ | Pir.P_release _
    | Pir.P_indirect _ ->
        ()
  in
  walk prog.Pir.px_main;
  List.iter (fun (_, body) -> walk body) prog.Pir.px_procs;
  List.filteri (fun i _ -> not bound.(i)) (Array.to_list prog.Pir.px_slots)

let create ?(seed = 17) ?(runtime_policy = Runtime.Aggressive) ?release_target
    ?governor ~os ~params prog =
  (match unbound_slots prog ~params with
  | [] -> ()
  | names ->
      invalid_arg
        (Printf.sprintf "App.create: %s reads %s, which no loop, call or parameter binds"
           prog.Pir.px_name (String.concat ", " names)));
  let asp = Os.new_process os ~name:prog.Pir.px_name in
  let sizes = Ir.env_of_list params in
  let segs =
    List.map
      (fun (a : Ir.array_decl) ->
        let elems = Ir.eval_bound sizes a.Ir.a_size_elems in
        let bytes = elems * a.Ir.a_elem_bytes in
        let seg =
          Os.map_segment os asp ~name:a.Ir.a_name ~bytes ~on_swap:a.Ir.a_on_swap
        in
        (a.Ir.a_name, (seg, a.Ir.a_elem_bytes)))
      prog.Pir.px_arrays
  in
  let rt =
    Runtime.create ?release_target ?governor ~os ~asp
      ~policy:runtime_policy ()
  in
  let t = { os; asp; rt; segs; touches = 0; main = ignore } in
  (* the last binding of a repeated parameter wins, as in [Ir.env_of_list] *)
  let env =
    Array.map
      (fun name ->
        List.fold_left (fun v (p, x) -> if p = name then x else v) 0 params)
      prog.Pir.px_slots
  in
  let page_bytes = (Os.config os).Memhog_vm.Config.page_bytes in
  t.main <- compile t ~seed ~page_bytes env prog;
  t

let emit_phase t ev =
  let obs = Os.obs t.os in
  if Obs.on obs then
    Obs.emit obs ~time:(Engine.now ()) ~stream:t.asp.As.pid ev

let exec_main t =
  Runtime.start t.rt;
  emit_phase t (Trace.Phase_begin { name = "main" });
  t.main ();
  emit_phase t (Trace.Phase_end { name = "main" })

let finish t =
  emit_phase t (Trace.Phase_begin { name = "drain" });
  Runtime.drain t.rt;
  (* let the helper threads and the releaser daemon consume the final
     requests before the caller declares the run over *)
  Engine.delay ~cat:Account.Sleep (Time_ns.ms 20);
  emit_phase t (Trace.Phase_end { name = "drain" })

let run t ~iterations =
  for _ = 1 to iterations do
    exec_main t
  done;
  finish t
