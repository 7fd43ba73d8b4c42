(* Spans the benchmark records around its own calls into the program's
   layers. They stay in memory and are written once, by [dump]; when
   [enabled] is false every wrapper calls straight through. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  req : int;  (** circuit or request the span belongs to *)
  name : string;
  start : float;
  mutable dur : float;
  mutable calls : int;
      (** more than 1 for an aggregated callback span, whose [dur] is the
          sum over its calls *)
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let current_req = ref (-1)
let now = Unix.gettimeofday

let set_req r = current_req := r

let push name ~start ~dur ~calls =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = !next_id; parent; req = !current_req; name; start; dur; calls } in
  incr next_id;
  recorded := s :: !recorded;
  s

let with_ name f =
  if not !enabled then f ()
  else begin
    let s = push name ~start:(now ()) ~dur:0.0 ~calls:1 in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.dur <- now () -. s.start;
        stack := List.tl !stack)
      f
  end

(* A completed child of the innermost open span whose duration was
   measured elsewhere (the server's own [time_s] inside a round trip). *)
let child name dur = if !enabled then ignore (push name ~start:(now ()) ~dur ~calls:1)

(* One record under the innermost open span that accumulates every call
   of a hot callback (a stream's source or sink): a million-gate stream
   would otherwise hold two million records. *)
let wrap name f =
  if not !enabled then f
  else begin
    let s = push name ~start:(now ()) ~dur:0.0 ~calls:0 in
    fun x ->
      let t0 = now () in
      let r = f x in
      s.dur <- s.dur +. (now () -. t0);
      s.calls <- s.calls + 1;
      r
  end

(* Self time per span name: each span's duration minus the durations of
   its children. The self time of the root is the time no layer span
   accounts for. *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.dur +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.dur -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
      let t, n = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0) in
      Hashtbl.replace by_name s.name (t +. self, n + s.calls))
    !recorded;
  Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) by_name []
  |> List.sort compare

let dump path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Serve.Jsonx.to_string
           (Serve.Jsonx.Obj
              [
                ("id", Int s.id);
                ("parent", Int s.parent);
                ("req", Int s.req);
                ("name", Str s.name);
                ("start", Float s.start);
                ("end", Float (s.start +. s.dur));
                ("calls", Int s.calls);
              ]));
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
