exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let time ~key s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then bad "%s: empty time" key;
  let rec split i =
    if i = 0 then bad "%s: bad time %S" key s
    else
      let c = s.[i - 1] in
      if (c >= '0' && c <= '9') || c = '.' then
        (String.sub s 0 i, String.sub s i (n - i))
      else split (i - 1)
  in
  let num, unit_ = split n in
  let v =
    match float_of_string_opt num with
    | Some v when v >= 0.0 -> v
    | _ -> bad "%s: bad time %S" key s
  in
  let scale =
    match unit_ with
    | "ns" -> 1.0
    | "us" -> 1e3
    | "ms" -> 1e6
    | "" | "s" -> 1e9
    | "m" -> 60e9
    | "h" -> 3600e9
    | u -> bad "%s: unknown time unit %S in %S" key u s
  in
  int_of_float (v *. scale)

let int ~key s =
  match int_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> bad "%s: bad integer %S" key s

let float ~key s =
  match float_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> bad "%s: bad number %S" key s

let kvs ~clause body =
  List.filter_map
    (fun kv ->
      let kv = String.trim kv in
      if kv = "" then None
      else
        match String.index_opt kv '=' with
        | None -> bad "%s: expected key=value, got %S" clause kv
        | Some eq ->
            Some
              ( String.trim (String.sub kv 0 eq),
                String.sub kv (eq + 1) (String.length kv - eq - 1) ))
    (String.split_on_char ',' body)
