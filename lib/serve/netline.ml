type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  acc : Buffer.t;  (** bytes read but not yet delivered *)
  mutable start : int;  (** scan offset of the next undelivered frame *)
  mutable scanned : int;  (** newline search resumes here, >= start *)
  mutable at_eof : bool;
  mutable broken : bool;  (** overflowed: framing lost for good *)
}

let reader fd =
  {
    fd;
    chunk = Bytes.create 65536;
    acc = Buffer.create 4096;
    start = 0;
    scanned = 0;
    at_eof = false;
    broken = false;
  }

type line = Line of string | Overflow | Eof

(* Drop the delivered prefix so the buffer doesn't grow with the
   connection's lifetime traffic. *)
let compact r =
  if r.start > 0 then begin
    let rest = Buffer.sub r.acc r.start (Buffer.length r.acc - r.start) in
    Buffer.clear r.acc;
    Buffer.add_string r.acc rest;
    r.scanned <- max 0 (r.scanned - r.start);
    r.start <- 0
  end

(* Resume the newline search where the previous one stopped, so a frame
   arriving in many chunks is scanned once, not once per chunk. *)
let find_newline r =
  let n = Buffer.length r.acc in
  let rec go i =
    if i >= n then begin
      r.scanned <- n;
      None
    end
    else if Buffer.nth r.acc i = '\n' then Some i
    else go (i + 1)
  in
  go (max r.start r.scanned)

let take_line r upto =
  let s = Buffer.sub r.acc r.start (upto - r.start) in
  r.start <- upto + 1;
  r.scanned <- r.start;
  compact r;
  let len = String.length s in
  if len > 0 && s.[len - 1] = '\r' then String.sub s 0 (len - 1) else s

let rec read_line ?(max_bytes = max_int) r =
  if r.broken then Overflow
  else
    match find_newline r with
    | Some i -> Line (take_line r i)
    | None ->
      let pending = Buffer.length r.acc - r.start in
      if pending > max_bytes then begin
        r.broken <- true;
        Overflow
      end
      else if r.at_eof then
        if pending > 0 then begin
          let s = Buffer.sub r.acc r.start pending in
          r.start <- Buffer.length r.acc;
          compact r;
          Line s
        end
        else Eof
      else begin
        (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        | 0 -> r.at_eof <- true
        | n -> Buffer.add_subbytes r.acc r.chunk 0 n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> r.at_eof <- true);
        read_line ~max_bytes r
      end

let write_line fd s =
  let data = s ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ESHUTDOWN), _, _)
        ->
        false
  in
  go 0
