(* Two-tier content-addressed cache.  The mutex guards the memory tier,
   the disk index and the stats; disk I/O happens outside it (packs are
   content-named and published by rename, so concurrent writers of one
   pack write identical bytes, and double-computing an entry is only a
   wasted write). *)

let format_version = "v2"

(* Where one record's payload sits on disk. *)
type loc = {
  pack : string;                   (* path of the pack *)
  off : int;                       (* payload offset in the pack *)
  len : int;                       (* payload length *)
  md5 : Stdlib.Digest.t;           (* payload MD5 *)
}

type t = {
  root : string option;            (* dir/v2, created on demand *)
  mem : (string, string) Hashtbl.t;
  order : string Queue.t;          (* FIFO insertion order for eviction *)
  capacity : int;
  index : (string, loc) Hashtbl.t; (* key -> its record in a pack *)
  packs : (string, unit) Hashtbl.t;  (* names of the packs indexed *)
  mutable scanned : float;         (* root's mtime at the last scan *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let tmp_counter = Atomic.make 0

(* The temp name is unique per call, so domains of one process writing
   one path never share a temp file. *)
let write_atomic ~path content =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp.%d.%d.%d.%s" (Unix.getpid ())
         (Domain.self () :> int)
         (Atomic.fetch_and_add tmp_counter 1)
         (Filename.basename path))
  in
  match
    let oc = open_out_bin tmp in
    (try output_string oc content with e -> close_out_noerr oc; raise e);
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v -> Mutex.unlock t.lock; v
  | exception e -> Mutex.unlock t.lock; raise e

(* ------------------------------------------------------------------ *)
(* Packs                                                              *)
(* ------------------------------------------------------------------ *)

(* A pack is a run of records, each
     "<key length> <payload length> <payload MD5 hex>\n<key>\n<payload>\n"
   and is named by the MD5 of its bytes. *)
let add_record buf (key, payload) =
  let md5 = Stdlib.Digest.string payload in
  Printf.bprintf buf "%d %d %s\n%s\n" (String.length key)
    (String.length payload) (Stdlib.Digest.to_hex md5) key;
  let off = Buffer.length buf in
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n';
  (key, off, String.length payload, md5)

let digest_of_hex h =
  try Some (Stdlib.Digest.from_hex h) with Invalid_argument _ -> None

(* The records of pack bytes [s] up to the first damaged one, so a
   truncated pack still serves the records before the damage. *)
let records s =
  let n = String.length s in
  let rec go pos acc =
    let record =
      match String.index_from_opt s pos '\n' with
      | None -> None
      | Some eol ->
        (match String.split_on_char ' ' (String.sub s pos (eol - pos)) with
         | [ klen; plen; md5 ] ->
           (match (int_of_string_opt klen, int_of_string_opt plen, digest_of_hex md5) with
            | Some klen, Some plen, Some md5
              when klen >= 0 && plen >= 0 && klen <= n && plen <= n ->
              let off = eol + 1 + klen + 1 in
              let stop = off + plen in
              if stop < n && s.[off - 1] = '\n' && s.[stop] = '\n' then
                Some ((String.sub s (eol + 1) klen, off, plen, md5), stop + 1)
              else None
            | _ -> None)
         | _ -> None)
    in
    match record with
    | Some (r, next) -> go next (r :: acc)
    | None -> List.rev acc
  in
  go 0 []

let read_pack path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> records s
  | exception Sys_error _ -> []

(* Index a pack's records under the lock; they replace any record of
   the same key indexed before. *)
let index_pack_locked t ~path name recs =
  Hashtbl.replace t.packs name ();
  List.iter
    (fun (key, off, len, md5) ->
      Hashtbl.replace t.index key { pack = path; off; len; md5 })
    recs

let mtime root =
  match Unix.stat root with
  | st -> Some st.Unix.st_mtime
  | exception Unix.Unix_error _ -> None

(* Index the packs in [root] this cache has not seen, unless the
   directory's mtime has not moved since the last scan.  A pack
   published within the timestamp tick of that scan's listing can leave
   the mtime unmoved; it is then seen after the directory's next change,
   and meanwhile its keys are only recomputed.  Each listing counts
   [serve.cache.scan]. *)
let rescan t root =
  match mtime root with
  | None -> ()
  | Some m when Float.equal m (with_lock t (fun () -> t.scanned)) -> ()
  | Some mtime ->
    Automode_obs.Probe.count "serve.cache.scan";
    let names = try Sys.readdir root with Sys_error _ -> [||] in
    let fresh =
      with_lock t (fun () ->
          List.filter
            (fun n -> Filename.check_suffix n ".pack" && not (Hashtbl.mem t.packs n))
            (Array.to_list names))
      |> List.sort String.compare
    in
    let parsed =
      List.map
        (fun n ->
          let path = Filename.concat root n in
          (n, path, read_pack path))
        fresh
    in
    with_lock t (fun () ->
        List.iter
          (fun (n, path, recs) ->
            if not (Hashtbl.mem t.packs n) then index_pack_locked t ~path n recs)
          parsed;
        t.scanned <- mtime)

let create ?dir ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  let root =
    Option.map
      (fun d ->
        let root = Filename.concat d format_version in
        mkdir_p root;
        root)
      dir
  in
  let t =
    { root;
      mem = Hashtbl.create 256;
      order = Queue.create ();
      capacity;
      index = Hashtbl.create 256;
      packs = Hashtbl.create 16;
      scanned = Float.nan;
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
      evictions = 0 }
  in
  Option.iter (rescan t) root;
  t

(* One open and one read of the payload.  A record whose pack has gone
   is dropped from the index; so is one whose payload fails its MD5 or
   is cut short, which also counts as corrupt. *)
let read_payload t key loc =
  let read () =
    let fd = Unix.openfile loc.pack [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd loc.off Unix.SEEK_SET);
        let buf = Bytes.create loc.len in
        let rec fill pos =
          if pos = loc.len then Some (Bytes.unsafe_to_string buf)
          else
            match Unix.read fd buf pos (loc.len - pos) with
            | 0 -> None
            | k -> fill (pos + k)
        in
        fill 0)
  in
  let payload, corrupt =
    match read () with
    | Some p when Stdlib.Digest.equal (Stdlib.Digest.string p) loc.md5 ->
      (Some p, false)
    | Some _ | None -> (None, true)
    | exception Unix.Unix_error _ -> (None, false)
  in
  if Option.is_none payload then begin
    with_lock t (fun () ->
        match Hashtbl.find_opt t.index key with
        | Some l when l == loc -> Hashtbl.remove t.index key
        | Some _ | None -> ());
    if corrupt then Automode_obs.Probe.count "serve.cache.corrupt"
  end;
  payload

(* The disk tier's payload for [key]; an unindexed key re-scans the
   directory for packs other processes have published first. *)
let disk_read t key =
  match t.root with
  | None -> None
  | Some root ->
    let indexed () = with_lock t (fun () -> Hashtbl.find_opt t.index key) in
    let loc =
      match indexed () with
      | Some _ as loc -> loc
      | None -> rescan t root; indexed ()
    in
    Option.bind loc (read_payload t key)

(* Publish a batch as one pack and index its records.  A pack of that
   name already holds these very bytes, so it is not written again.  The
   rename moves the directory's mtime; when nothing else had moved it
   since the last scan, the mtime after the rename is recorded as
   scanned, so this cache's next miss does not list the directory for
   its own pack.  A pack another process publishes between the two
   stats is seen after the directory's next change, as in [rescan]. *)
let disk_write t root entries =
  let buf = Buffer.create 4096 in
  let recs = List.map (add_record buf) entries in
  let content = Buffer.contents buf in
  let name = Stdlib.Digest.to_hex (Stdlib.Digest.string content) ^ ".pack" in
  let path = Filename.concat root name in
  let published =
    if Sys.file_exists path then None
    else begin
      let before = mtime root in
      write_atomic ~path content;
      Option.map (fun after -> (before, after)) (mtime root)
    end
  in
  with_lock t (fun () ->
      (match published with
       | Some (Some before, after) when Float.equal before t.scanned ->
         t.scanned <- after
       | Some _ | None -> ());
      index_pack_locked t ~path name recs)

(* Insert under the lock; FIFO eviction.  The queue can hold keys whose
   entry was since overwritten — pop until one actually leaves. *)
let mem_insert_locked t key payload =
  if not (Hashtbl.mem t.mem key) then begin
    while Hashtbl.length t.mem >= t.capacity && not (Queue.is_empty t.order) do
      let victim = Queue.pop t.order in
      if Hashtbl.mem t.mem victim then begin
        Hashtbl.remove t.mem victim;
        t.evictions <- t.evictions + 1;
        Automode_obs.Probe.count "serve.cache.evict"
      end
    done;
    Queue.push key t.order
  end;
  Hashtbl.replace t.mem key payload

let count_hit t =
  with_lock t (fun () -> t.hits <- t.hits + 1);
  Automode_obs.Probe.count "serve.cache.hit"

let count_miss t =
  with_lock t (fun () -> t.misses <- t.misses + 1);
  Automode_obs.Probe.count "serve.cache.miss"

let find t ~key ~decode =
  let payload =
    match with_lock t (fun () -> Hashtbl.find_opt t.mem key) with
    | Some _ as p -> p
    | None ->
      (match disk_read t key with
       | Some payload ->
         with_lock t (fun () -> mem_insert_locked t key payload);
         Some payload
       | None -> None)
  in
  match payload with
  | None -> count_miss t; None
  | Some payload ->
    (match decode payload with
     | Some v -> count_hit t; Some v
     | None -> count_miss t; None)

let store t = function
  | [] -> ()
  | entries ->
    with_lock t (fun () ->
        List.iter (fun (key, payload) -> mem_insert_locked t key payload) entries);
    Option.iter (fun root -> disk_write t root entries) t.root

let stats t = with_lock t (fun () -> (t.hits, t.misses, t.evictions))

let dir t = Option.map Filename.dirname t.root
