(* The durable sinks every served run writes (journal and audit log, both
   with fsync off), the digests of a pass's answers and final document,
   and small file-system helpers. *)

let now = Obs.Mono.now

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type durable = {
  dir : string;
  store : Store.t;
  audit : Store.Audit_log.t;
}

(* A fresh journal initialised with [doc], and the audit log attached as
   the sink of the (enabled) in-memory audit ring.  The program records
   no span around its sink, so the bench wraps it in one: a traced pass
   sees audit appends as a layer of their own. *)
let open_durable dir doc =
  rm_rf dir;
  mkdir_p dir;
  let store = Store.open_dir ~fsync:false (Filename.concat dir "journal") in
  Store.init store doc;
  let audit = Store.Audit_log.open_dir ~fsync:false (Filename.concat dir "audit") in
  let sink = Store.Audit_log.sink audit in
  Obs.Audit.clear Obs.Audit.default;
  Obs.Audit.set_enabled true;
  Obs.Audit.set_sink Obs.Audit.default
    (Some (fun ev -> Obs.Trace.with_span "audit.append" (fun () -> sink ev)));
  { dir; store; audit }

let close_durable d =
  Obs.Audit.set_sink Obs.Audit.default None;
  Obs.Audit.set_enabled false;
  Obs.Audit.clear Obs.Audit.default;
  Store.close d.store;
  Store.Audit_log.close d.audit;
  rm_rf d.dir

let journal_bytes d =
  (Unix.stat (Filename.concat (Store.dir d.store) "journal.log")).Unix.st_size

(* Order-sensitive digest of every answer list a pass returned. *)
type answers = { mutable h : int; mutable lists : int }

let answers () = { h = 0; lists = 0 }

let add_answers a ids =
  let mix h x = (h * 1_000_003) lxor x in
  a.h <- mix (List.fold_left (fun h id -> mix h (Ordpath.hash id)) a.h ids) (List.length ids);
  a.lists <- a.lists + 1

let answers_hex a = Printf.sprintf "%016x/%d" (a.h land max_int) a.lists

let doc_digest doc = Digest.to_hex (Digest.string (Xmldoc.Xml_print.to_canonical doc))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())
