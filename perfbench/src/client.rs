//! The load generator's side of the wire: connections, pre-built request
//! bytes, and the setup that warms the server (MAC sessions, the RMI
//! proof cache, the authz caches).
//!
//! Every request's bytes are built before timing starts, so the
//! generator's per-operation cost is one write, one read and one check.

use crate::inputs::{self, ID_HEADER};
use crate::server::doc_body;
use snowflake_channel::{RecordCrypto, SecureChannel, TcpTransport};
use snowflake_core::{Certificate, Delegation, Principal, Proof, Time, Validity};
use snowflake_crypto::KeyPair;
use snowflake_http::{HttpClient, HttpRequest, HttpResponse, SnowflakeProxy};
use snowflake_prover::Prover;
use snowflake_rmi::{Invocation, RmiReply, PROOF_RECIPIENT};
use snowflake_sexpr::Sexp;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// What a correct reply looks like.
pub enum Expect {
    /// HTTP 200 with exactly this body.
    Body(Vec<u8>),
    /// An authz answer, judged by the allow/deny model.
    Authz { subject: usize },
    /// An RMI return echoing this id.
    Echo(String),
}

/// One pre-built operation.
pub struct Op {
    pub id: u64,
    pub bytes: Vec<u8>,
    pub expect: Expect,
}

pub enum Reply {
    Http(HttpResponse),
    Rmi(RmiReply),
}

/// One client connection.
pub enum Conn {
    Http {
        addr: SocketAddr,
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    },
    Rmi {
        writer: TcpStream,
        reader: TcpStream,
        crypto: Box<RecordCrypto>,
    },
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    Ok(s)
}

impl Conn {
    pub fn http(addr: SocketAddr) -> io::Result<Conn> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn::Http {
            addr,
            writer,
            reader,
        })
    }

    /// Opens a secure channel, submits `proof` to the proof recipient,
    /// and keeps the session's record crypto for pre-sealed calls.
    pub fn rmi(addr: SocketAddr, key: &KeyPair, proof: &Proof, seed: u64) -> io::Result<Conn> {
        let stream = connect(addr)?;
        let mut rng = inputs::rng(seed, "rmi-client-channel");
        let mut channel = SecureChannel::client(
            Box::new(TcpTransport::new(stream.try_clone()?)),
            Some(key),
            None,
            &mut *rng,
        )?;
        let submit = Invocation {
            object: PROOF_RECIPIENT.into(),
            method: "submit".into(),
            args: vec![proof.to_sexp()],
            quoting: None,
        };
        channel.send(&submit.to_sexp().canonical())?;
        let reply = Sexp::parse(&channel.recv()?)
            .ok()
            .and_then(|s| RmiReply::from_sexp(&s).ok());
        if !matches!(reply, Some(RmiReply::Return(_))) {
            return Err(io::Error::other(format!("proof refused: {reply:?}")));
        }
        let parts = channel.into_parts();
        drop(parts.transport);
        Ok(Conn::Rmi {
            reader: stream.try_clone()?,
            writer: stream,
            crypto: Box::new(parts.crypto),
        })
    }

    /// Re-opens an HTTP connection the server closed (after a shed).
    pub fn reconnect(&mut self) -> io::Result<()> {
        match self {
            Conn::Http { addr, .. } => {
                *self = Conn::http(*addr)?;
                Ok(())
            }
            Conn::Rmi { .. } => Err(io::Error::other("an RMI session cannot be resumed")),
        }
    }

    /// Writes one pre-built request and reads its reply.
    pub fn call(&mut self, bytes: &[u8]) -> io::Result<Reply> {
        match self {
            Conn::Http { writer, reader, .. } => {
                writer.write_all(bytes)?;
                HttpResponse::read_from(reader)?
                    .map(Reply::Http)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "closed"))
            }
            Conn::Rmi {
                writer,
                reader,
                crypto,
            } => {
                writer.write_all(bytes)?;
                let mut len = [0u8; 4];
                reader.read_exact(&mut len)?;
                let mut frame = vec![0u8; u32::from_be_bytes(len) as usize];
                reader.read_exact(&mut frame)?;
                let plain = crypto.open(&frame)?;
                let sexp = Sexp::parse(&plain).map_err(|e| io::Error::other(e.to_string()))?;
                RmiReply::from_sexp(&sexp)
                    .map(Reply::Rmi)
                    .map_err(|e| io::Error::other(e.to_string()))
            }
        }
    }

    /// Seals echo calls for ids `ids`, in the order they will be sent.
    pub fn seal_calls(&mut self, ids: impl Iterator<Item = u64>) -> Vec<Op> {
        let Conn::Rmi { crypto, .. } = self else {
            panic!("sealing needs an RMI connection");
        };
        ids.map(|id| {
            let inv = Invocation {
                object: inputs::RMI_OBJECT.to_string(),
                method: inputs::RMI_METHOD.to_string(),
                args: vec![Sexp::from(id.to_string().as_str())],
                quoting: None,
            };
            let record = crypto.seal(&inv.to_sexp().canonical());
            let mut bytes = (record.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(&record);
            Op {
                id,
                bytes,
                expect: Expect::Echo(id.to_string()),
            }
        })
        .collect()
    }
}

fn wire(req: &HttpRequest) -> Vec<u8> {
    let mut b = Vec::new();
    req.write_to(&mut b).expect("serialize to Vec");
    b
}

/// A keep-alive document request carrying its id.
fn doc_request(id: u64) -> HttpRequest {
    let mut req = HttpRequest::get(&format!("{}{id}", inputs::DOC_PREFIX));
    req.set_header(ID_HEADER, &id.to_string());
    req.set_header("Connection", "keep-alive");
    req
}

fn doc_expect(req: &HttpRequest, id: u64) -> Expect {
    Expect::Body(doc_body(&req.path, &id.to_string()))
}

/// The document owner's clients: one proxy per client key, each holding
/// the chain owner ⇒ group ⇒ client.
pub struct Clients {
    owner: Principal,
    proxies: Vec<SnowflakeProxy>,
}

impl Clients {
    pub fn new(seed: u64, n: usize) -> Clients {
        let owner_kp = inputs::owner(seed);
        let group_kp = inputs::group(seed);
        let owner = Principal::key(&owner_kp.public);
        let group = Principal::key(&group_kp.public);
        let mut rng = inputs::rng(seed, "grants");
        let delegate = |signer: &KeyPair,
                        subject: Principal,
                        issuer: &Principal,
                        rng: &mut dyn FnMut(&mut [u8])| {
            Proof::signed_cert(Certificate::issue(
                signer,
                Delegation {
                    subject,
                    issuer: issuer.clone(),
                    tag: inputs::web_grant(),
                    validity: Validity::always(),
                    delegable: true,
                },
                rng,
            ))
        };
        let group_grant = delegate(&owner_kp, group.clone(), &owner, &mut *rng);
        let proxies = (0..n)
            .map(|i| {
                let client = inputs::client(seed, i);
                let member = delegate(&group_kp, Principal::key(&client.public), &group, &mut *rng);
                let prover = Arc::new(Prover::with_rng(inputs::rng(seed, &format!("prover/{i}"))));
                prover.add_key(client);
                prover.add_proof(group_grant.clone());
                prover.add_proof(member);
                SnowflakeProxy::with_clock(
                    prover,
                    Time::now,
                    inputs::rng(seed, &format!("proxy/{i}")),
                )
            })
            .collect();
        Clients { owner, proxies }
    }

    /// Signs document requests `ids`, spreading them over the client keys
    /// by `pick`; each proof runs request ⇒ client ⇒ group ⇒ owner.
    pub fn signed(&self, ids: &[u64], pick: &[usize]) -> Vec<Op> {
        ids.iter()
            .zip(pick)
            .map(|(&id, &k)| {
                let req = doc_request(id);
                let expect = doc_expect(&req, id);
                let tag = crate::server::doc_tag(&req);
                let signed = self.proxies[k]
                    .sign_request(req, &self.owner, &tag)
                    .expect("every client holds a chain to the owner");
                Op {
                    id,
                    bytes: wire(&signed),
                    expect,
                }
            })
            .collect()
    }

    /// Establishes one MAC session per proxy, over `conns` connections
    /// in parallel.
    pub fn establish_sessions(&self, addr: SocketAddr, conns: usize) -> io::Result<()> {
        let per = self.proxies.len().div_ceil(conns).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .proxies
                .chunks(per)
                .map(|proxies| {
                    s.spawn(move || -> io::Result<()> {
                        let mut client = HttpClient::new(Box::new(connect(addr)?));
                        for proxy in proxies {
                            proxy
                                .establish_mac_session(
                                    &mut client,
                                    &self.owner,
                                    &inputs::web_grant(),
                                )
                                .map_err(|e| {
                                    io::Error::other(format!("MAC establishment: {e:?}"))
                                })?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("establishment thread"))
        })
    }

    /// MAC-authenticates document requests `ids` over the sessions.
    pub fn mac_signed(&self, ids: &[u64], pick: &[usize]) -> Vec<Op> {
        ids.iter()
            .zip(pick)
            .map(|(&id, &k)| {
                let req = doc_request(id);
                let expect = doc_expect(&req, id);
                let signed = self.proxies[k]
                    .mac_sign(req, &self.owner)
                    .expect("session established at setup");
                Op {
                    id,
                    bytes: wire(&signed),
                    expect,
                }
            })
            .collect()
    }
}

/// The RMI client's proof: owner ⇒ the client's channel key.
pub fn rmi_proof(seed: u64) -> (KeyPair, Proof) {
    let owner = inputs::rmi_owner(seed);
    let client = inputs::rmi_client(seed);
    let mut rng = inputs::rng(seed, "rmi-grant");
    let cert = Certificate::issue(
        &owner,
        Delegation {
            subject: Principal::key(&client.public),
            issuer: Principal::key(&owner.public),
            tag: snowflake_rmi::method_tag(inputs::RMI_OBJECT, inputs::RMI_METHOD),
            validity: Validity::always(),
            delegable: false,
        },
        &mut *rng,
    );
    (client, Proof::signed_cert(cert))
}

/// An authz question about `subject`.
pub fn question(id: u64, subject: usize, room: usize) -> Op {
    let mut req = HttpRequest::post("/authz", inputs::authz_body(subject, room));
    req.set_header(ID_HEADER, &id.to_string());
    req.set_header("Connection", "keep-alive");
    Op {
        id,
        bytes: wire(&req),
        expect: Expect::Authz { subject },
    }
}

/// An admin request (`revoke` or `grant`) for `subject`.
pub fn admin(id: u64, action: &str, subject: usize) -> Op {
    let mut req = HttpRequest::post(
        &format!("/admin/{action}"),
        subject.to_string().into_bytes(),
    );
    req.set_header(ID_HEADER, &id.to_string());
    req.set_header("Connection", "keep-alive");
    let past = if action == "revoke" {
        "revoked"
    } else {
        "granted"
    };
    Op {
        id,
        bytes: wire(&req),
        expect: Expect::Body(format!("{past} {subject}").into_bytes()),
    }
}
