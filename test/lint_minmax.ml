(* Fails when a simulator source file calls the bare, unqualified [min] or
   [max].  On ints those compile to a call into polymorphic compare; the
   per-event paths must write [Int.min]/[Int.max], and float sites whose
   NaN behaviour must not change write [Stdlib.min]/[Stdlib.max].

   Usage: lint_minmax.exe FILE.ml...  Exits 1 and lists every offending
   line.  Comments, string and character literals are skipped; a name
   after [.] (a module path or a field) or after [~]/[?] (a label) is not
   a use. *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Offending (line, name) pairs of one source text. *)
let offences src =
  let n = String.length src in
  let found = ref [] in
  let line = ref 1 in
  let at i = if i < n then src.[i] else '\000' in
  let bump i = if at i = '\n' then incr line in
  (* Skip a string literal whose opening quote is at [i]; return the index
     after the closing quote. *)
  let rec skip_string i =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' ->
          bump (i + 1);
          skip_string (i + 2)
      | _ ->
          bump i;
          skip_string (i + 1)
  in
  (* [{id|...|id}]: the quoted-string form, no escapes. *)
  let skip_quoted i =
    let j = ref (i + 1) in
    while !j < n && (is_ident_char src.[!j]) do incr j done;
    if at !j <> '|' then None
    else begin
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub src !k m <> close do
        bump !k;
        incr k
      done;
      Some (Int.min n (!k + m))
    end
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if at i = '(' && at (i + 1) = '*' then skip_comment (i + 2) (depth + 1)
    else if at i = '*' && at (i + 1) = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if at i = '"' then skip_comment (skip_string (i + 1)) depth
    else begin
      bump i;
      skip_comment (i + 1) depth
    end
  in
  let prev_significant i =
    let j = ref (i - 1) in
    while !j >= 0 && (src.[!j] = ' ' || src.[!j] = '\n' || src.[!j] = '\t') do
      decr j
    done;
    if !j < 0 then '\000' else src.[!j]
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && at (!i + 1) = '*' then i := skip_comment (!i + 2) 1
    else if c = '"' then i := skip_string (!i + 1)
    else if c = '{' then (
      match skip_quoted !i with Some j -> i := j | None -> incr i)
    else if c = '\'' then
      (* A character literal ('x', '\n', '\000'); otherwise a type
         variable's quote. *)
      if at (!i + 1) = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && src.[!j] <> '\'' do incr j done;
        i := !j + 1
      end
      else if at (!i + 2) = '\'' then i := !i + 3
      else incr i
    else if is_ident_start c && not (!i > 0 && is_ident_char src.[!i - 1]) then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let name = String.sub src !i (!j - !i) in
      (if name = "min" || name = "max" then
         match prev_significant !i with
         | '.' | '~' | '?' -> ()
         | _ -> found := (!line, name) :: !found);
      i := !j
    end
    else begin
      bump !i;
      incr i
    end
  done;
  List.rev !found

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let bad =
    List.concat_map
      (fun f -> List.map (fun (l, name) -> (f, l, name)) (offences (read_file f)))
      files
  in
  List.iter
    (fun (f, l, name) ->
      Printf.eprintf
        "%s:%d: bare [%s]: write Int.%s for ints, Stdlib.%s for floats\n" f l
        name name name)
    bad;
  if bad <> [] then exit 1
