let clamp_jobs jobs = max 1 (min 64 jobs)

let default_jobs () = clamp_jobs (Domain.recommended_domain_count ())

(* Each worker claims the next index from one atomic counter until none
   is left; a task's exception is kept (first one wins) rather than
   stopping its worker, so every task runs.  Joining the workers orders
   their writes to [results] before the caller reads them. *)
let map ~jobs f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let jobs = min (clamp_jobs jobs) n in
  if jobs <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let first_error = Atomic.make None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f tasks.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set first_error None (Some (e, bt))));
        work ()
      end
    in
    List.iter Domain.join (List.init jobs (fun _ -> Domain.spawn work));
    (match Atomic.get first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list (Array.map Option.get results)
  end
